// bench_software — §3 context: Montgomery multiplication avoids the trial
// division that dominates naive modular arithmetic.  Microbenchmarks of
// the software layers: division-based modular multiplication vs the
// word-level Montgomery kernel (WordMontgomery's 64-bit CIOS) and, as a
// Koç-style comparison, the radix-2^32 SOS and FIPS scans kept here; the
// radix-2 Algorithms 1 and 2, the Karatsuba threshold, the kernel's
// fixed-window ModExp, and the throughput of the hardware-model fidelity
// levels.  SOS and FIPS are checked against the kernel on every fixture
// before they are timed; a mismatch exits 1.
//
// Self-timed (bench_timer.hpp, no benchmark-framework dependency).
// Writes BENCH_software.json; wall_* keys are host-dependent and exempt
// from the CI drift gate.  --smoke shortens the measurement windows and
// trims the gate-level sweep.
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench_json.hpp"
#include "bench_timer.hpp"
#include "bignum/biguint.hpp"
#include "bignum/montgomery.hpp"
#include "bignum/random.hpp"
#include "core/mmmc.hpp"
#include "core/netlist_gen.hpp"
#include "rtl/simulator.hpp"

namespace {

using mont::bignum::BigUInt;
using mont::bignum::BitSerialMontgomery;
using mont::bignum::RandomBigUInt;
using mont::bignum::WordMontgomery;

struct Fixture {
  BigUInt n, x, y;
  explicit Fixture(std::size_t bits) {
    RandomBigUInt rng(0xbe7c4 + bits);
    n = rng.OddExactBits(bits);
    x = rng.Below(n);
    y = rng.Below(n);
  }
};

/// Radix-2^32 Montgomery product x*y*2^(-32 s) mod N by Separated or
/// Finely Integrated Product Scanning (Koç, Acar & Kaliski), over the
/// modulus's s 32-bit limbs, with BigUInt in and out like the kernel's
/// Multiply.
class KocScans {
 public:
  using Limb = BigUInt::Limb;

  explicit KocScans(const BigUInt& n) : n_(n.Limbs().begin(), n.Limbs().end()) {
    // -N^-1 mod 2^32 by Newton iteration on the 2-adic inverse.
    Limb inv = 1;
    for (int iter = 0; iter < 5; ++iter) {
      inv = static_cast<Limb>(inv * (2u - n_[0] * inv));
    }
    n0_inv_ = static_cast<Limb>(0u - inv);
  }

  BigUInt Sos(const BigUInt& x, const BigUInt& y) const {
    const std::size_t s = n_.size();
    const std::vector<Limb> a = Pad(x), b = Pad(y);
    // Phase 1: full double-width product.
    std::vector<Limb> t(2 * s + 1, 0);
    for (std::size_t i = 0; i < s; ++i) {
      std::uint64_t carry = 0;
      for (std::size_t j = 0; j < s; ++j) {
        const std::uint64_t v =
            static_cast<std::uint64_t>(a[i]) * b[j] + t[i + j] + carry;
        t[i + j] = static_cast<Limb>(v);
        carry = v >> 32;
      }
      t[i + s] = static_cast<Limb>(carry);
    }
    // Phase 2: interleaved reduction, one limb of m per outer step.
    for (std::size_t i = 0; i < s; ++i) {
      const Limb m = static_cast<Limb>(t[i] * n0_inv_);
      std::uint64_t carry = 0;
      for (std::size_t j = 0; j < s; ++j) {
        const std::uint64_t v =
            static_cast<std::uint64_t>(m) * n_[j] + t[i + j] + carry;
        t[i + j] = static_cast<Limb>(v);
        carry = v >> 32;
      }
      for (std::size_t j = i + s; carry != 0 && j < t.size(); ++j) {
        const std::uint64_t v = static_cast<std::uint64_t>(t[j]) + carry;
        t[j] = static_cast<Limb>(v);
        carry = v >> 32;
      }
    }
    // Phase 3: divide by R = 2^(32 s) and reduce.
    return Reduced(std::vector<Limb>(t.begin() + static_cast<std::ptrdiff_t>(s),
                                     t.end()));
  }

  BigUInt Fips(const BigUInt& x, const BigUInt& y) const {
    const std::size_t s = n_.size();
    const std::vector<Limb> a = Pad(x), b = Pad(y);
    std::vector<Limb> m(s, 0);
    std::vector<Limb> u(s + 1, 0);
    unsigned __int128 acc = 0;
    // Lower half: accumulate column i of a*b + m*N, emit m[i], shift.
    for (std::size_t i = 0; i < s; ++i) {
      for (std::size_t j = 0; j < i; ++j) {
        acc += static_cast<unsigned __int128>(a[j]) * b[i - j];
        acc += static_cast<unsigned __int128>(m[j]) * n_[i - j];
      }
      acc += static_cast<unsigned __int128>(a[i]) * b[0];
      m[i] = static_cast<Limb>(static_cast<Limb>(acc) * n0_inv_);
      acc += static_cast<unsigned __int128>(m[i]) * n_[0];
      acc >>= 32;
    }
    // Upper half: remaining columns produce the result limbs directly.
    for (std::size_t i = s; i < 2 * s; ++i) {
      for (std::size_t j = i - s + 1; j < s; ++j) {
        acc += static_cast<unsigned __int128>(a[j]) * b[i - j];
        acc += static_cast<unsigned __int128>(m[j]) * n_[i - j];
      }
      u[i - s] = static_cast<Limb>(acc);
      acc >>= 32;
    }
    u[s] = static_cast<Limb>(acc);
    return Reduced(std::move(u));
  }

 private:
  std::vector<Limb> Pad(const BigUInt& v) const {
    std::vector<Limb> out(n_.size(), 0);
    for (std::size_t i = 0; i < n_.size(); ++i) out[i] = v.LimbAt(i);
    return out;
  }

  /// value (s + 1 limbs, below 2N) minus N when it is at least N.
  BigUInt Reduced(std::vector<Limb> value) const {
    const std::size_t s = n_.size();
    bool geq = value[s] != 0;
    if (!geq) {
      geq = true;  // equal until a difference is found
      for (std::size_t i = s; i-- > 0;) {
        if (value[i] != n_[i]) {
          geq = value[i] > n_[i];
          break;
        }
      }
    }
    if (geq) {
      std::int64_t borrow = 0;
      for (std::size_t i = 0; i < s; ++i) {
        const std::int64_t diff = static_cast<std::int64_t>(value[i]) -
                                  static_cast<std::int64_t>(n_[i]) - borrow;
        borrow = diff < 0 ? 1 : 0;
        value[i] = static_cast<Limb>(diff & 0xffffffff);
      }
    }
    value.resize(s);  // the overflow limb is gone once value < N
    return BigUInt::FromLimbs(value);
  }

  std::vector<Limb> n_;
  Limb n0_inv_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const double window = smoke ? 0.01 : 0.25;  // seconds per measurement

  std::vector<mont::bench::JsonRow> rows;
  std::printf("=== software layers: modular multiplication and simulation "
              "cost ===\n\n");
  std::printf("%-22s %8s | %12s %12s\n", "op", "bits", "iters", "ns/op");
  std::printf("-------------------------------+---------------------------\n");
  const auto report = [&](const char* op, std::size_t bits,
                          const mont::bench::TimedResult& timed) {
    std::printf("%-22s %8zu | %12llu %12.1f\n", op, bits,
                static_cast<unsigned long long>(timed.iterations),
                timed.wall_ns_per_op);
    rows.push_back({
        {"op", op},
        {"bits", bits},
        {"iterations", timed.iterations},
        {"wall_ns_per_op", timed.wall_ns_per_op},
    });
  };

  for (const std::size_t bits : {256u, 1024u, 2048u}) {
    const Fixture f(bits);
    report("division_modmul", bits, mont::bench::TimeIt([&] {
      mont::bench::KeepAlive((f.x * f.y) % f.n);
    }, window));
    const WordMontgomery ctx(f.n);
    const KocScans koc(f.n);
    for (const auto& [x, y] : {std::pair{f.x, f.y}, std::pair{f.y, f.x},
                               std::pair{f.n - 1, f.n - 1},
                               std::pair{BigUInt{0}, f.x},
                               std::pair{ctx.OneMont(), f.y}}) {
      if (koc.Sos(x, y) != ctx.Multiply(x, y) ||
          koc.Fips(x, y) != ctx.Multiply(x, y)) {
        std::fprintf(stderr, "SOS/FIPS disagree with the CIOS kernel at %zu "
                             "bits\n", bits);
        return 1;
      }
    }
    report("montgomery_cios", bits, mont::bench::TimeIt([&] {
      mont::bench::KeepAlive(ctx.Multiply(f.x, f.y));
    }, window));
    report("montgomery_sos", bits, mont::bench::TimeIt([&] {
      mont::bench::KeepAlive(koc.Sos(f.x, f.y));
    }, window));
    report("montgomery_fips", bits, mont::bench::TimeIt([&] {
      mont::bench::KeepAlive(koc.Fips(f.x, f.y));
    }, window));
  }

  for (const std::size_t bits : {256u, 1024u}) {
    const Fixture f(bits);
    const BitSerialMontgomery ctx(f.n);
    report("bitserial_alg1", bits, mont::bench::TimeIt([&] {
      mont::bench::KeepAlive(ctx.MultiplyAlg1(f.x, f.y));
    }, window));
    report("bitserial_alg2", bits, mont::bench::TimeIt([&] {
      mont::bench::KeepAlive(ctx.MultiplyAlg2(f.x, f.y));
    }, window));
  }

  // Around the Karatsuba threshold (24 limbs = 768 bits) and beyond.
  for (const std::size_t bits : {512u, 768u, 1536u, 4096u, 16384u}) {
    RandomBigUInt rng(0x3141u);
    const BigUInt a = rng.ExactBits(bits);
    const BigUInt b = rng.ExactBits(bits);
    report("multiplication", bits, mont::bench::TimeIt([&] {
      mont::bench::KeepAlive(a * b);
    }, window));
  }

  for (const std::size_t bits : {256u, 512u, 1024u}) {
    const Fixture f(bits);
    const WordMontgomery ctx(f.n);
    report("modexp_word_level", bits, mont::bench::TimeIt([&] {
      mont::bench::KeepAlive(ctx.ModExp(f.x, f.y));
    }, window));
  }

  // Hardware-model fidelity levels: host cost of simulating one MMM.
  for (const std::size_t bits : {64u, 256u, 1024u}) {
    const Fixture f(bits);
    mont::core::Mmmc circuit(f.n);
    report("sim_behavioural", bits, mont::bench::TimeIt([&] {
      mont::bench::KeepAlive(circuit.Multiply(f.x, f.y));
    }, window));
  }
  const std::vector<std::size_t> gate_sweep =
      smoke ? std::vector<std::size_t>{16, 64}
            : std::vector<std::size_t>{16, 64, 128};
  for (const std::size_t bits : gate_sweep) {
    const Fixture f(bits);
    const auto gen = mont::core::BuildMmmcNetlist(bits);
    mont::rtl::Simulator sim(*gen.netlist);
    for (std::size_t b = 0; b < bits; ++b) {
      sim.SetInput(gen.n_in[b], f.n.Bit(b));
    }
    report("sim_gate_level", bits, mont::bench::TimeIt([&] {
      for (std::size_t b = 0; b <= bits; ++b) {
        sim.SetInput(gen.x_in[b], f.x.Bit(b));
        sim.SetInput(gen.y_in[b], f.y.Bit(b));
      }
      sim.SetInput(gen.start, true);
      sim.Tick();
      sim.SetInput(gen.start, false);
      while (!sim.Peek(gen.done)) sim.Tick();
      sim.Tick();
    }, window));
  }

  const std::string path = mont::bench::WriteBenchJson(
      "software", rows, {{"smoke", smoke}});
  std::printf("\nJSON written to %s\n", path.c_str());
  return 0;
}
