// Pinned results and EngineStats of every exponentiation path: MmmEngine
// ModExp on each registered backend (both fields where supported), the
// service's solo path, PairedModExp with and without the dual-channel
// array, the right-to-left InterleavedExponentiator, and the RSA
// private-key paths (CRT and plain) on a fixed key.  The expected
// rows are literals, so any change to the §4.5 step sequence, its
// operation counts or its issue charging shows up here as a diff.
//
// A row reads "result squarings multiplications mmm_invocations
// paired_issues single_issues engine_cycles paper_model_cycles cancelled".
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "bignum/biguint.hpp"
#include "core/engine.hpp"
#include "core/exp_service.hpp"
#include "core/interleaved.hpp"
#include "crypto/rsa.hpp"

namespace mont::core {
namespace {

using bignum::BigUInt;

const BigUInt kN64 = BigUInt::FromHex("d3c21bcecceda101");
const BigUInt kN64b = BigUInt::FromHex("c8f0e2a5b3d19e27");
const BigUInt kN16{40961};
const BigUInt kF16{0x1002b};  // x^16 + x^5 + x^3 + x + 1
const BigUInt kBase = BigUInt::FromHex("5eed1234abcd9876");
const BigUInt kBaseB = BigUInt::FromHex("1234fedc98765431");

/// 0, 1, 2, 3, 2^63, a balanced 64-bit value and all-ones at 96 bits.
std::vector<BigUInt> Exponents() {
  return {BigUInt{0},
          BigUInt{1},
          BigUInt{2},
          BigUInt{3},
          BigUInt::PowerOfTwo(63),
          BigUInt::FromHex("a5a5a5a5a5a5a5a5"),
          BigUInt::PowerOfTwo(96) - BigUInt{1}};
}

std::string Row(const BigUInt& result, const EngineStats& s) {
  std::string row = result.ToHex();
  for (const std::uint64_t v :
       {s.squarings, s.multiplications, s.mmm_invocations, s.paired_issues,
        s.single_issues, s.engine_cycles, s.paper_model_cycles, s.cancelled}) {
    row += ' ' + std::to_string(v);
  }
  return row;
}

/// Compares computed rows with the pinned ones, printing every computed
/// row in source form on a mismatch.
void ExpectRows(const std::vector<std::string>& got,
                const std::vector<std::string>& want) {
  std::string listing;
  for (const std::string& row : got) listing += "      \"" + row + "\",\n";
  EXPECT_EQ(got, want) << "computed rows:\n" << listing;
}

TEST(ExpPins, EngineModExp) {
  struct Backend {
    const char* name;
    EngineField field;
    const BigUInt& modulus;
  };
  const std::array<Backend, 10> backends = {{
      {"bit-serial", EngineField::kGfP, kN64},
      {"bit-serial", EngineField::kGf2, kF16},
      {"word-mont", EngineField::kGfP, kN64},
      {"mmmc", EngineField::kGfP, kN64},
      {"mmmc", EngineField::kGf2, kF16},
      {"interleaved", EngineField::kGfP, kN64},
      {"high-radix", EngineField::kGfP, kN64},
      {"blum-paar", EngineField::kGfP, kN64},
      {"netlist-sim", EngineField::kGfP, kN16},
      {"netlist-sim", EngineField::kGf2, kF16},
  }};
  std::vector<std::string> got;
  for (const Backend& backend : backends) {
    const auto engine =
        MakeEngine(backend.name, backend.modulus, {.field = backend.field});
    for (const BigUInt& e : Exponents()) {
      EngineStats stats;
      const BigUInt result = engine->ModExp(kBase, e, &stats);
      got.push_back(std::string(backend.name) + ' ' +
                    EngineFieldName(backend.field) + ' ' + Row(result, stats));
    }
  }
  ExpectRows(got, {
      "bit-serial GF(p) 1 0 0 0 0 0 0 0 0",
      "bit-serial GF(p) 5eed1234abcd9876 0 0 2 0 0 392 396 0",
      "bit-serial GF(p) 5ae6e175b22fcf5e 1 0 3 0 0 588 592 0",
      "bit-serial GF(p) 463f1eb4d5712f50 1 1 4 0 0 784 788 0",
      "bit-serial GF(p) d155a1934ec001c7 63 0 65 0 0 12740 12744 0",
      "bit-serial GF(p) 19b8dc15dfcd4ef0 63 31 96 0 0 18816 18820 0",
      "bit-serial GF(p) 81a464871f14edb6 95 95 192 0 0 37632 37636 0",
      "bit-serial GF(2^m) 1 0 0 0 0 0 0 0 0",
      "bit-serial GF(2^m) cbd3 0 0 2 0 0 104 108 0",
      "bit-serial GF(2^m) 2a1a 1 0 3 0 0 156 160 0",
      "bit-serial GF(2^m) 2b7b 1 1 4 0 0 208 212 0",
      "bit-serial GF(2^m) e564 63 0 65 0 0 3380 3384 0",
      "bit-serial GF(2^m) 7e8d 63 31 96 0 0 4992 4996 0",
      "bit-serial GF(2^m) 1 95 95 192 0 0 9984 9988 0",
      "word-mont GF(p) 1 0 0 0 0 0 0 0 0",
      "word-mont GF(p) 5eed1234abcd9876 0 0 2 0 0 20 396 0",
      "word-mont GF(p) 5ae6e175b22fcf5e 1 0 3 0 0 30 592 0",
      "word-mont GF(p) 463f1eb4d5712f50 1 1 4 0 0 40 788 0",
      "word-mont GF(p) d155a1934ec001c7 63 0 65 0 0 650 12744 0",
      "word-mont GF(p) 19b8dc15dfcd4ef0 63 31 96 0 0 960 18820 0",
      "word-mont GF(p) 81a464871f14edb6 95 95 192 0 0 1920 37636 0",
      "mmmc GF(p) 1 0 0 0 0 0 0 0 0",
      "mmmc GF(p) 5eed1234abcd9876 0 0 2 0 0 392 396 0",
      "mmmc GF(p) 5ae6e175b22fcf5e 1 0 3 0 0 588 592 0",
      "mmmc GF(p) 463f1eb4d5712f50 1 1 4 0 0 784 788 0",
      "mmmc GF(p) d155a1934ec001c7 63 0 65 0 0 12740 12744 0",
      "mmmc GF(p) 19b8dc15dfcd4ef0 63 31 96 0 0 18816 18820 0",
      "mmmc GF(p) 81a464871f14edb6 95 95 192 0 0 37632 37636 0",
      "mmmc GF(2^m) 1 0 0 0 0 0 0 0 0",
      "mmmc GF(2^m) cbd3 0 0 2 0 0 104 108 0",
      "mmmc GF(2^m) 2a1a 1 0 3 0 0 156 160 0",
      "mmmc GF(2^m) 2b7b 1 1 4 0 0 208 212 0",
      "mmmc GF(2^m) e564 63 0 65 0 0 3380 3384 0",
      "mmmc GF(2^m) 7e8d 63 31 96 0 0 4992 4996 0",
      "mmmc GF(2^m) 1 95 95 192 0 0 9984 9988 0",
      "interleaved GF(p) 1 0 0 0 0 0 0 0 0",
      "interleaved GF(p) 5eed1234abcd9876 0 0 2 0 0 392 396 0",
      "interleaved GF(p) 5ae6e175b22fcf5e 1 0 3 0 0 588 592 0",
      "interleaved GF(p) 463f1eb4d5712f50 1 1 4 0 0 784 788 0",
      "interleaved GF(p) d155a1934ec001c7 63 0 65 0 0 12740 12744 0",
      "interleaved GF(p) 19b8dc15dfcd4ef0 63 31 96 0 0 18816 18820 0",
      "interleaved GF(p) 81a464871f14edb6 95 95 192 0 0 37632 37636 0",
      "high-radix GF(p) 1 0 0 0 0 0 0 0 0",
      "high-radix GF(p) 5eed1234abcd9876 0 0 2 0 0 58 396 0",
      "high-radix GF(p) 5ae6e175b22fcf5e 1 0 3 0 0 87 592 0",
      "high-radix GF(p) 463f1eb4d5712f50 1 1 4 0 0 116 788 0",
      "high-radix GF(p) d155a1934ec001c7 63 0 65 0 0 1885 12744 0",
      "high-radix GF(p) 19b8dc15dfcd4ef0 63 31 96 0 0 2784 18820 0",
      "high-radix GF(p) 81a464871f14edb6 95 95 192 0 0 5568 37636 0",
      "blum-paar GF(p) 1 0 0 0 0 0 0 0 0",
      "blum-paar GF(p) 5eed1234abcd9876 0 0 2 0 0 396 396 0",
      "blum-paar GF(p) 5ae6e175b22fcf5e 1 0 3 0 0 594 592 0",
      "blum-paar GF(p) 463f1eb4d5712f50 1 1 4 0 0 792 788 0",
      "blum-paar GF(p) d155a1934ec001c7 63 0 65 0 0 12870 12744 0",
      "blum-paar GF(p) 19b8dc15dfcd4ef0 63 31 96 0 0 19008 18820 0",
      "blum-paar GF(p) 81a464871f14edb6 95 95 192 0 0 38016 37636 0",
      "netlist-sim GF(p) 1 0 0 0 0 0 0 0 0",
      "netlist-sim GF(p) 4523 0 0 2 0 0 104 108 0",
      "netlist-sim GF(p) 64ea 1 0 3 0 0 156 160 0",
      "netlist-sim GF(p) 7264 1 1 4 0 0 208 212 0",
      "netlist-sim GF(p) 4da6 63 0 65 0 0 3380 3384 0",
      "netlist-sim GF(p) 9dac 63 31 96 0 0 4992 4996 0",
      "netlist-sim GF(p) 2c16 95 95 192 0 0 9984 9988 0",
      "netlist-sim GF(2^m) 1 0 0 0 0 0 0 0 0",
      "netlist-sim GF(2^m) cbd3 0 0 2 0 0 104 108 0",
      "netlist-sim GF(2^m) 2a1a 1 0 3 0 0 156 160 0",
      "netlist-sim GF(2^m) 2b7b 1 1 4 0 0 208 212 0",
      "netlist-sim GF(2^m) e564 63 0 65 0 0 3380 3384 0",
      "netlist-sim GF(2^m) 7e8d 63 31 96 0 0 4992 4996 0",
      "netlist-sim GF(2^m) 1 95 95 192 0 0 9984 9988 0",
  });
}

TEST(ExpPins, ServiceSoloPath) {
  std::vector<std::string> got;
  for (const char* engine : {"bit-serial", "word-mont"}) {
    ExpService::Options options;
    options.workers = 1;
    options.enable_pairing = false;
    options.engine_name = engine;
    ExpService service(options);
    for (const BigUInt& e : Exponents()) {
      const ExpResult result = service.Submit(kN64, kBase, e).get();
      EXPECT_FALSE(result.paired);
      got.push_back(std::string(engine) + ' ' +
                    Row(result.value, result.stats));
    }
  }
  ExpectRows(got, {
      "bit-serial 1 0 0 0 0 0 0 0 0",
      "bit-serial 5eed1234abcd9876 0 0 2 0 2 392 396 0",
      "bit-serial 5ae6e175b22fcf5e 1 0 3 0 3 588 592 0",
      "bit-serial 463f1eb4d5712f50 1 1 4 0 4 784 788 0",
      "bit-serial d155a1934ec001c7 63 0 65 0 65 12740 12744 0",
      "bit-serial 19b8dc15dfcd4ef0 63 31 96 0 96 18816 18820 0",
      "bit-serial 81a464871f14edb6 95 95 192 0 192 37632 37636 0",
      "word-mont 1 0 0 0 0 0 0 0 0",
      "word-mont 5eed1234abcd9876 0 0 2 0 2 20 396 0",
      "word-mont 5ae6e175b22fcf5e 1 0 3 0 3 30 592 0",
      "word-mont 463f1eb4d5712f50 1 1 4 0 4 40 788 0",
      "word-mont d155a1934ec001c7 63 0 65 0 65 650 12744 0",
      "word-mont 19b8dc15dfcd4ef0 63 31 96 0 96 960 18820 0",
      "word-mont 81a464871f14edb6 95 95 192 0 192 1920 37636 0",
  });
}

TEST(ExpPins, PairedModExp) {
  const auto engine_a = MakeEngine("bit-serial", kN64);
  const auto engine_b = MakeEngine("bit-serial", kN64b);
  InterleavedMmmc array(kN64, kN64b);
  const std::vector<BigUInt> exponents = Exponents();
  std::vector<std::string> got;
  for (InterleavedMmmc* on : {static_cast<InterleavedMmmc*>(nullptr), &array}) {
    for (std::size_t i = 0; i < exponents.size(); ++i) {
      const PairedExpResult paired =
          PairedModExp(*engine_a, kBase, exponents[i], *engine_b, kBaseB,
                       exponents[exponents.size() - 1 - i], on);
      const std::string tag = on == nullptr ? "engines " : "array ";
      got.push_back(tag + "a " + Row(paired.a, paired.stats_a));
      got.push_back(tag + "b " + Row(paired.b, paired.stats_b));
      got.push_back(tag + "issues " + Row(BigUInt{}, paired.stats));
    }
  }
  ExpectRows(got, {
      "engines a 1 0 0 0 0 0 0 0 0",
      "engines b 6ee90cb8ea74e251 95 95 192 0 0 0 37636 0",
      "engines issues 0 0 0 0 0 192 37632 0 0",
      "engines a 5eed1234abcd9876 0 0 2 0 0 0 396 0",
      "engines b 68c19a8a6b37526c 63 31 96 0 0 0 18820 0",
      "engines issues 0 0 0 0 2 94 18818 0 0",
      "engines a 5ae6e175b22fcf5e 1 0 3 0 0 0 592 0",
      "engines b ac32495bc457cacc 63 0 65 0 0 0 12744 0",
      "engines issues 0 0 0 0 3 62 12743 0 0",
      "engines a 463f1eb4d5712f50 1 1 4 0 0 0 788 0",
      "engines b c369d7d1180a5838 1 1 4 0 0 0 788 0",
      "engines issues 0 0 0 0 4 0 788 0 0",
      "engines a d155a1934ec001c7 63 0 65 0 0 0 12744 0",
      "engines b 59d8480a7d4fc4ff 1 0 3 0 0 0 592 0",
      "engines issues 0 0 0 0 3 62 12743 0 0",
      "engines a 19b8dc15dfcd4ef0 63 31 96 0 0 0 18820 0",
      "engines b 1234fedc98765431 0 0 2 0 0 0 396 0",
      "engines issues 0 0 0 0 2 94 18818 0 0",
      "engines a 81a464871f14edb6 95 95 192 0 0 0 37636 0",
      "engines b 1 0 0 0 0 0 0 0 0",
      "engines issues 0 0 0 0 0 192 37632 0 0",
      "array a 1 0 0 0 0 0 0 0 0",
      "array b 6ee90cb8ea74e251 95 95 192 0 0 0 37636 0",
      "array issues 0 0 0 0 0 192 37632 0 0",
      "array a 5eed1234abcd9876 0 0 2 0 0 0 396 0",
      "array b 68c19a8a6b37526c 63 31 96 0 0 0 18820 0",
      "array issues 0 0 0 0 2 94 18818 0 0",
      "array a 5ae6e175b22fcf5e 1 0 3 0 0 0 592 0",
      "array b ac32495bc457cacc 63 0 65 0 0 0 12744 0",
      "array issues 0 0 0 0 3 62 12743 0 0",
      "array a 463f1eb4d5712f50 1 1 4 0 0 0 788 0",
      "array b c369d7d1180a5838 1 1 4 0 0 0 788 0",
      "array issues 0 0 0 0 4 0 788 0 0",
      "array a d155a1934ec001c7 63 0 65 0 0 0 12744 0",
      "array b 59d8480a7d4fc4ff 1 0 3 0 0 0 592 0",
      "array issues 0 0 0 0 3 62 12743 0 0",
      "array a 19b8dc15dfcd4ef0 63 31 96 0 0 0 18820 0",
      "array b 1234fedc98765431 0 0 2 0 0 0 396 0",
      "array issues 0 0 0 0 2 94 18818 0 0",
      "array a 81a464871f14edb6 95 95 192 0 0 0 37636 0",
      "array b 1 0 0 0 0 0 0 0 0",
      "array issues 0 0 0 0 0 192 37632 0 0",
  });
}

TEST(ExpPins, InterleavedExponentiator) {
  InterleavedExponentiator exponentiator(kN64);
  std::vector<std::string> got;
  for (const BigUInt& e : Exponents()) {
    EngineStats stats;
    got.push_back(Row(exponentiator.ModExp(kBase, e, &stats), stats));
  }
  ExpectRows(got, {
      "1 0 0 0 0 0 0 0 0",
      "5eed1234abcd9876 0 0 0 1 2 589 0 0",
      "5ae6e175b22fcf5e 0 0 0 1 3 785 0 0",
      "463f1eb4d5712f50 0 0 0 2 2 786 0 0",
      "d155a1934ec001c7 0 0 0 1 65 12937 0 0",
      "19b8dc15dfcd4ef0 0 0 0 32 34 12968 0 0",
      "81a464871f14edb6 0 0 0 96 2 19304 0 0",
  });
}

// A fixed 128-bit RSA key (64-bit p and q, so the CRT halves pair) and
// three messages: the CRT pair on the paired bit-serial array and on
// word-mont's sequential fallback, then the plain c^d mod n on both.
TEST(ExpPins, RsaPrivateKeyPaths) {
  crypto::RsaKeyPair key;
  key.n = BigUInt::FromHex("ccbae8f817b2f1a6e9d33f90bef6381b");
  key.e = BigUInt{65537};
  key.d = BigUInt::FromHex("652a5d51aee04961476c3c91c8707b4d");
  key.p = BigUInt::FromHex("f1407d62df16b46f");
  key.q = BigUInt::FromHex("d93eddd8bac0c515");
  const std::array<BigUInt, 3> messages = {
      BigUInt::FromHex("47a1221b4c0bd0b26b669304fdb2624e"),
      BigUInt::FromHex("baf1cd2acb2c8a7c6db34ba84527a8d1"),
      BigUInt::FromHex("55caea83e79c68cb48a3d3ad809b9d23")};
  std::vector<std::string> got;
  for (const char* engine : {"bit-serial", "word-mont"}) {
    for (const BigUInt& m : messages) {
      EngineStats stats;
      const BigUInt sig = crypto::RsaPrivateCrt(key, m, engine, &stats);
      got.push_back(std::string(engine) + " crt " + Row(sig, stats));
    }
  }
  for (const char* engine : {"bit-serial", "word-mont"}) {
    for (const BigUInt& m : messages) {
      EngineStats stats;
      const BigUInt sig = crypto::RsaPrivate(key, m, engine, &stats);
      got.push_back(std::string(engine) + " plain " + Row(sig, stats));
    }
  }
  ExpectRows(got, {
      "bit-serial crt 302b9be828df29ff4d0e53d0f604520f 0 0 0 94 5 19498 0 0",
      "bit-serial crt 86c60251e3a08e781c300efbd0ab568f 0 0 0 94 5 19498 0 0",
      "bit-serial crt 9a31967408722e1f26e536370ef4f100 0 0 0 94 5 19498 0 0",
      "word-mont crt 302b9be828df29ff4d0e53d0f604520f 0 0 0 0 193 1930 0 0",
      "word-mont crt 86c60251e3a08e781c300efbd0ab568f 0 0 0 0 193 1930 0 0",
      "word-mont crt 9a31967408722e1f26e536370ef4f100 0 0 0 0 193 1930 0 0",
      "bit-serial plain 302b9be828df29ff4d0e53d0f604520f 126 59 187 0 0 72556 72560 0",
      "bit-serial plain 86c60251e3a08e781c300efbd0ab568f 126 59 187 0 0 72556 72560 0",
      "bit-serial plain 9a31967408722e1f26e536370ef4f100 126 59 187 0 0 72556 72560 0",
      "word-mont plain 302b9be828df29ff4d0e53d0f604520f 126 59 187 0 0 6732 72560 0",
      "word-mont plain 86c60251e3a08e781c300efbd0ab568f 126 59 187 0 0 6732 72560 0",
      "word-mont plain 9a31967408722e1f26e536370ef4f100 126 59 187 0 0 6732 72560 0",
  });
}

}  // namespace
}  // namespace mont::core
