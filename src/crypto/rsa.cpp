#include "crypto/rsa.hpp"

#include <array>
#include <atomic>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bignum/montgomery.hpp"
#include "bignum/prime.hpp"
#include "obs/trace.hpp"

namespace mont::crypto {

using bignum::BigUInt;

RsaKeyPair GenerateRsaKey(std::size_t modulus_bits,
                          bignum::RandomBigUInt& rng) {
  if (modulus_bits < 32 || modulus_bits % 2 != 0) {
    throw std::invalid_argument("GenerateRsaKey: need even modulus_bits >= 32");
  }
  const std::size_t half = modulus_bits / 2;
  for (;;) {
    RsaKeyPair key;
    key.p = bignum::GeneratePrime(half, rng);
    do {
      key.q = bignum::GeneratePrime(half, rng);
    } while (key.q == key.p);
    key.n = key.p * key.q;
    if (key.n.BitLength() != modulus_bits) continue;  // forced top bits make
                                                      // this rare
    const BigUInt p1 = key.p - BigUInt{1};
    const BigUInt q1 = key.q - BigUInt{1};
    const BigUInt lambda = (p1 * q1) / BigUInt::Gcd(p1, q1);
    key.e = BigUInt{65537};
    while (!BigUInt::Gcd(key.e, lambda).IsOne()) key.e += BigUInt{2};
    key.d = BigUInt::ModInverse(key.e, lambda);
    return key;
  }
}

BigUInt RsaPublic(const RsaKeyPair& key, const BigUInt& m,
                  std::string_view engine) {
  if (m >= key.n) throw std::invalid_argument("RsaPublic: message >= modulus");
  return core::MakeEngine(engine, key.n)->ModExp(m, key.e);
}

BigUInt RsaPrivate(const RsaKeyPair& key, const BigUInt& c,
                   std::string_view engine, core::EngineStats* stats) {
  if (c >= key.n) throw std::invalid_argument("RsaPrivate: input >= modulus");
  return core::MakeEngine(engine, key.n)->ModExp(c, key.d, stats);
}

namespace {

// d + k*order for a fresh k of `bits` bits (k's top bit is forced, so the
// exponent really is randomized); bits == 0 returns d unchanged.
BigUInt BlindExponent(const BigUInt& d, const BigUInt& order,
                      std::size_t bits, bignum::RandomBigUInt& rng) {
  if (bits == 0) return d;
  return d + rng.ExactBits(bits) * order;
}

// The throwing CRT entry points never release a signature the Bellcore
// check rejected.
BigUInt Released(std::optional<BigUInt> sig, const char* who) {
  if (!sig) {
    throw std::runtime_error(
        std::string(who) +
        ": CRT fault check failed (sig^e mod n != input); result withheld");
  }
  return std::move(*sig);
}

// The in-line CRT halves: input^ep mod p and input^eq mod q on `engine`,
// paired or solo as RsaPrivateCrt documents.
std::pair<BigUInt, BigUInt> RunCrtHalves(const CrtKey& crt,
                                         const BigUInt& input,
                                         const BigUInt& ep, const BigUInt& eq,
                                         std::string_view engine,
                                         core::EngineStats* stats = nullptr) {
  const RsaKeyPair& key = crt.key();
  const auto engine_p = core::MakeEngine(engine, key.p);
  const auto engine_q = core::MakeEngine(engine, key.q);
  if (engine_p->l() == engine_q->l() && engine_p->Caps().pairable_streams) {
    // The two half-exponentiations share the array: p on channel A, q on
    // channel B of one dual-modulus interleaved multiplier.
    core::PairedExpResult paired = core::PairedModExp(
        *engine_p, input % key.p, ep, *engine_q, input % key.q, eq);
    if (stats != nullptr) *stats = paired.stats;
    return {std::move(paired.a), std::move(paired.b)};
  }
  // Unequal prime lengths cannot share cells, and a backend without
  // pairable streams cannot pair at all: issue sequentially.
  core::EngineStats stats_p, stats_q;
  BigUInt mp = engine_p->ModExp(input % key.p, ep, &stats_p);
  BigUInt mq = engine_q->ModExp(input % key.q, eq, &stats_q);
  if (stats != nullptr) {
    *stats = {};
    stats->single_issues = stats_p.mmm_invocations + stats_q.mmm_invocations;
    stats->engine_cycles = stats_p.engine_cycles + stats_q.engine_cycles;
  }
  return {std::move(mp), std::move(mq)};
}

// The base-blinding step itself: c -> c * r^e mod n.
BigUInt BlindBaseWith(const BigUInt& c, const BigUInt& e, const BigUInt& n,
                      const core::MmmEngine& engine,
                      const RsaBlindingUnit& unit) {
  return (c * engine.ModExp(unit.r, e)) % n;
}

}  // namespace

RsaBlindingUnit MakeRsaBlindingUnit(const BigUInt& n,
                                    bignum::RandomBigUInt& rng) {
  // Random candidates below n are almost never non-units for RSA moduli,
  // so the rejection loop is effectively one draw.
  for (;;) {
    BigUInt r = rng.Below(n);
    if (r <= BigUInt{1}) continue;
    if (!BigUInt::Gcd(r, n).IsOne()) continue;
    BigUInt r_inv = BigUInt::ModInverse(r, n);
    return {std::move(r), std::move(r_inv)};
  }
}

BigUInt BlindRsaBase(const BigUInt& c, const BigUInt& e, const BigUInt& n,
                     bignum::RandomBigUInt& rng) {
  return BlindBaseWith(c, e, n, *core::MakeEngine("word-mont", n),
                       MakeRsaBlindingUnit(n, rng));
}

BigUInt RsaLambda(const RsaKeyPair& key) {
  if (key.p * key.q != key.n) {
    throw std::invalid_argument("RsaLambda: p*q != n");
  }
  const BigUInt p1 = key.p - BigUInt{1};
  const BigUInt q1 = key.q - BigUInt{1};
  return (p1 * q1) / BigUInt::Gcd(p1, q1);
}

BigUInt RsaPrivateBlinded(const RsaKeyPair& key, const BigUInt& c,
                          bignum::RandomBigUInt& rng,
                          const RsaBlindingOptions& options,
                          std::string_view engine) {
  if (c >= key.n) {
    throw std::invalid_argument("RsaPrivateBlinded: input >= modulus");
  }
  const auto eng = core::MakeEngine(engine, key.n);
  BigUInt input = c;
  RsaBlindingUnit unit;
  if (options.blind_base) {
    unit = MakeRsaBlindingUnit(key.n, rng);
    input = BlindBaseWith(input, key.e, key.n, *eng, unit);
  }
  BigUInt d_eff = key.d;
  if (options.exponent_blind_bits > 0) {
    // Exponent randomization needs the group order, i.e. the key's
    // factorization — RsaLambda rejects keys whose p/q are not the real
    // factors instead of silently computing a wrong-order blinding.
    d_eff = BlindExponent(key.d, RsaLambda(key), options.exponent_blind_bits,
                          rng);
  }
  BigUInt m = eng->ModExp(input, d_eff);
  if (options.blind_base) m = (m * unit.r_inv) % key.n;
  return m;
}

BigUInt RsaPrivateCrtBlinded(const RsaKeyPair& key, const BigUInt& c,
                             bignum::RandomBigUInt& rng,
                             const RsaBlindingOptions& options,
                             std::string_view engine) {
  if (c >= key.n) {
    throw std::invalid_argument("RsaPrivateCrtBlinded: input >= modulus");
  }
  const CrtKey crt(key);
  BigUInt input = c;
  RsaBlindingUnit unit;
  if (options.blind_base) {
    // Blind once mod n, before the CRT split, so *both* half-
    // exponentiations run on residues of the blinded value.
    unit = MakeRsaBlindingUnit(key.n, rng);
    input = BlindBaseWith(input, key.e, key.n,
                          *core::MakeEngine(engine, key.n), unit);
  }
  auto [mp, mq] = RunCrtHalves(
      crt, input,
      BlindExponent(crt.dp(), key.p - BigUInt{1}, options.exponent_blind_bits,
                    rng),
      BlindExponent(crt.dq(), key.q - BigUInt{1}, options.exponent_blind_bits,
                    rng),
      engine);
  if (options.blind_base) {
    // Unblinding each half by r^-1 equals unblinding the recombined
    // signature (CRT uniqueness), and leaves the gate to check the
    // released value against the *original* input.
    mp = (mp * unit.r_inv) % key.p;
    mq = (mq * unit.r_inv) % key.q;
  }
  return Released(crt.Recombine(c, mp, mq), "RsaPrivateCrtBlinded");
}

BigUInt RsaPrivateCrt(const RsaKeyPair& key, const BigUInt& c,
                      std::string_view engine, core::EngineStats* stats) {
  if (c >= key.n) throw std::invalid_argument("RsaPrivateCrt: input >= modulus");
  const CrtKey crt(key);
  const auto [mp, mq] =
      RunCrtHalves(crt, c, crt.dp(), crt.dq(), engine, stats);
  return Released(crt.Recombine(c, mp, mq), "RsaPrivateCrt");
}

std::vector<BigUInt> RsaSignBatch(const RsaKeyPair& key,
                                  std::span<const BigUInt> messages,
                                  core::ExpService& service) {
  // A GF(2^m)-configured service would accept p and q as "field
  // polynomials" (any odd prime has f(0) = 1) and compute carry-less
  // nonsense that the fault check would then misreport as a fault.
  if (service.options().engine_options.field != core::EngineField::kGfP) {
    throw std::invalid_argument(
        "RsaSignBatch: the service must run a GF(p) engine");
  }
  // Shared with every continuation, so halves still in flight when a
  // Submit throws mid-batch never touch this frame.
  const auto crt = std::make_shared<const CrtKey>(key);
  // Fail fast before any pair is queued: a bad message mid-span must not
  // leave earlier jobs burning worker time for futures nobody will read.
  for (const BigUInt& message : messages) {
    if (message >= key.n) {
      throw std::invalid_argument("RsaSignBatch: message >= modulus");
    }
  }
  obs::Tracer* const tracer = service.options().tracer;
  const core::Clock& clock = service.clock();
  const bool tracing = tracer != nullptr && tracer->enabled();
  const std::uint64_t batch_start = tracing ? clock.Now() : 0;

  std::vector<std::future<BigUInt>> recombined;
  recombined.reserve(messages.size());
  for (std::size_t index = 0; index < messages.size(); ++index) {
    auto signature = std::make_shared<std::promise<BigUInt>>();
    recombined.push_back(signature->get_future());
    // Message-index trace ids correlate each message's job.run spans
    // with its crt.* events.
    core::ExpJobOptions job_options;
    job_options.trace_id = static_cast<std::uint64_t>(index) + 1;
    const CrtTrace trace{tracer, &clock, job_options.trace_id, 0};
    SubmitCrtHalves(
        service, *crt, messages[index], job_options,
        [crt, signature, message = messages[index], trace](CrtHalves& halves) {
          try {
            if (halves.error != nullptr) {
              std::rethrow_exception(halves.error);
            }
            signature->set_value(Released(
                crt->Recombine(message, halves.mp, halves.mq, trace),
                "RsaSignBatch"));
          } catch (...) {
            signature->set_exception(std::current_exception());
          }
        });
  }
  std::vector<BigUInt> signatures;
  signatures.reserve(messages.size());
  for (auto& future : recombined) signatures.push_back(future.get());
  if (tracing) {
    tracer->Complete(
        "rsa.batch", 0, 0, batch_start, clock.Now(),
        {{"messages", static_cast<std::uint64_t>(messages.size())}});
  }
  return signatures;
}

BigUInt RsaCrtRecombine(const RsaKeyPair& key, const BigUInt& q_inv,
                        const BigUInt& mp, const BigUInt& mq) {
  BigUInt diff = mp % key.p;
  const BigUInt mq_mod_p = mq % key.p;
  if (diff < mq_mod_p) diff += key.p;
  diff -= mq_mod_p;
  const BigUInt h = (q_inv * diff) % key.p;
  return mq + key.q * h;
}

bool RsaCrtResultOk(const core::MmmEngine& verify_engine,
                    const RsaKeyPair& key, const BigUInt& input,
                    const BigUInt& sig) {
  return verify_engine.ModExp(sig, key.e) == input;
}

// ---------------------------------------------------------------------------
// The CRT core
// ---------------------------------------------------------------------------

CrtKey::CrtKey(const RsaKeyPair& key) : key_(key) {
  if (key.p == key.q) {
    throw std::invalid_argument("CrtKey: p == q (not a valid CRT key)");
  }
  if (key.p * key.q != key.n) {
    throw std::invalid_argument("CrtKey: p*q != n");
  }
  dp_ = key.d % (key.p - BigUInt{1});
  dq_ = key.d % (key.q - BigUInt{1});
  q_inv_ = BigUInt::ModInverse(key.q % key.p, key.p);
  verify_engine_ = core::MakeEngine("word-mont", key.n);
}

std::optional<BigUInt> CrtKey::Recombine(const BigUInt& input,
                                         const BigUInt& mp, const BigUInt& mq,
                                         const CrtTrace& trace) const {
  obs::Tracer* const tracer = trace.tracer;
  const bool tracing = tracer != nullptr && tracer->enabled();
  const std::uint64_t start = tracing ? trace.clock->Now() : 0;
  BigUInt sig = RsaCrtRecombine(key_, q_inv_, mp, mq);
  const bool bellcore_ok = RsaCrtResultOk(*verify_engine_, key_, input, sig);
  if (tracing) {
    tracer->Complete("crt.recombine", trace.id, 0, start, trace.clock->Now(),
                     {{"bellcore_ok", bellcore_ok ? std::uint64_t{1}
                                                  : std::uint64_t{0}}});
    if (!bellcore_ok) {
      tracer->Instant("bellcore.fault", trace.id, 0, trace.clock->Now(),
                      {{"attempt", trace.attempt}});
    }
  }
  if (!bellcore_ok) return std::nullopt;
  return sig;
}

void SubmitCrtHalves(core::ExpService& service, const CrtKey& key,
                     const BigUInt& input, const core::ExpJobOptions& options,
                     std::function<void(CrtHalves&)> done) {
  struct Join {
    std::array<core::ExpResult, 2> halves;  // p, q: one writer each
    std::atomic<int> remaining{2};
    std::function<void(CrtHalves&)> done;
  };
  auto join = std::make_shared<Join>();
  join->done = std::move(done);
  const auto on_half = [&service, &join, &options](std::size_t half) {
    return [&service, join, trace_id = options.trace_id,
            half](const core::ExpResult& result) {
      join->halves[half] = result;
      // acq_rel: the half that lands second sees the first half's write
      // before it posts the join.
      if (join->remaining.fetch_sub(1, std::memory_order_acq_rel) != 1) {
        return;
      }
      obs::Tracer* const tracer = service.options().tracer;
      if (tracer != nullptr && tracer->enabled()) {
        tracer->Instant("crt.join", trace_id, 0, service.clock().Now());
      }
      service.Post([join] {
        auto& [p, q] = join->halves;
        CrtHalves halves{std::move(p.value), std::move(q.value),
                         p.cancelled || q.cancelled,
                         p.error != nullptr ? p.error : q.error};
        join->done(halves);
      });
    };
  };
  const RsaKeyPair& rsa = key.key();
  service.Submit(rsa.p, input % rsa.p, key.dp(), options, on_half(0));
  service.Submit(rsa.q, input % rsa.q, key.dq(), options, on_half(1));
}

}  // namespace mont::crypto
