// Pinned key generation: GeneratePrime and GenerateRsaKey from fixed
// RandomBigUInt seeds, plus IsProbablePrime verdicts over fixed ranges.
// Each row ends with the generator's next 64-bit word, so a change to the
// small-prime sieve, to a Miller-Rabin verdict or to how many random
// draws a candidate consumes shows up here as a diff.  Every seeded
// workload and trace replay in the tree starts from such keys.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bignum/biguint.hpp"
#include "bignum/prime.hpp"
#include "bignum/random.hpp"
#include "crypto/rsa.hpp"

namespace mont::bignum {
namespace {

std::string NextWord(RandomBigUInt& rng) {
  return BigUInt{rng.Engine().Next()}.ToHex();
}

/// Compares computed rows with the pinned ones, printing every computed
/// row in source form on a mismatch.
void ExpectRows(const std::vector<std::string>& got,
                const std::vector<std::string>& want) {
  std::string listing;
  for (const std::string& row : got) listing += "      \"" + row + "\",\n";
  EXPECT_EQ(got, want) << "computed rows:\n" << listing;
}

TEST(KeygenPins, GeneratePrime) {
  std::vector<std::string> got;
  // 6 to 12 bits draw candidates the sieve itself may name prime.
  for (const std::size_t bits : {6u, 10u, 12u, 256u, 384u}) {
    for (const std::uint64_t seed : {0x9e11ull, 0x51deull}) {
      RandomBigUInt rng(seed + bits);
      const BigUInt p = GeneratePrime(bits, rng);
      got.push_back(std::to_string(bits) + ' ' + p.ToHex() + ' ' +
                    NextWord(rng));
    }
  }
  ExpectRows(got, {
      "6 35 c7ce698ca54d1158",
      "6 35 74a4c9de9d82892a",
      "10 3fd 92228aef26a24c6e",
      "10 35f 384db4a4e59c8132",
      "12 cfb 9966a55d2244538",
      "12 eb1 5c2365d90b2a7435",
      "256 c43daf32e84c3e75494e56e1d58dc3cafe3febfe1cc29f682b8dec5df51afcef 82fc4dee7cc13db",
      "256 cacd660409fb3541a7e2316feafea9725df3d1c69b1e4fbaa78191423dfe9bf9 1932a05aa858e2ab",
      "384 cce2695c0287efd20a6230bda75f59bfbb28c6268a2573624707e8ba3981d7fc1d97f04e88c2f3bb5d5cc00f7b1fd267 3e037cd0493e6d5d",
      "384 dd1c9ff122fdcb55881d33e611b67dcbf2b8b1d86ac41ea9dba8248b7cc1d83270c535f0e43a743e1fd83713024b99a3 3352b3dfcb143a6a",
  });
}

TEST(KeygenPins, GenerateRsaKey) {
  std::vector<std::string> got;
  for (const std::size_t bits : {512u, 768u}) {
    RandomBigUInt rng(0x4e5a + bits);
    const crypto::RsaKeyPair key = crypto::GenerateRsaKey(bits, rng);
    got.push_back(std::to_string(bits) + " p " + key.p.ToHex());
    got.push_back(std::to_string(bits) + " q " + key.q.ToHex());
    got.push_back(std::to_string(bits) + " e " + key.e.ToHex() + " d " +
                  key.d.ToHex());
    got.push_back(std::to_string(bits) + " next " + NextWord(rng));
  }
  ExpectRows(got, {
      "512 p eee7c470df73482502dcbb062dc41b6c7f1d427bb3e75df44eada2936cab47d9",
      "512 q fdf28ba1c0f788d1e03e44d9471f1fd75196ec49f914b9c5f766fe8f9d78ec85",
      "512 e 10001 d 167e41987a0e2307d4542a56bf59d8b9108f46758360f854387c82df04c1fa13d16b8e35993c86af2401e8138598ad757afeb494381043e008067109de47eb59",
      "512 next 2edf260f5192aec7",
      "768 p d9633057b2e54625067185ea48f48a71429874f2c99790943e8e3b04355060798008b23e022eb57b8879cde0386b9975",
      "768 q c68c404513b67575bb1e2fd35b6fb2a018659a1d1005534c630e00290473dda33399889120a7bf5e56851017d08bdaf9",
      "768 e 10001 d 89e1a0610ede3bbb17f8c42a51acba9d0b2b67f22c31acd0e65e8654be9c72fc1adb5d9c1545473067827e73861687c51dc58a55e7654eedca15ec031560506fc90d83ef947ac818b6ee83eaafc1698a4253c91bd9af6dc66827864138a2c29",
      "768 next d6012ebbad9e3567",
  });
}

// Direct IsProbablePrime callers: the small primes themselves, composites
// below and above the sieve bound, and candidates that reach the
// Miller-Rabin rounds.  A row is "first count-of-probable-primes next".
TEST(KeygenPins, IsProbablePrimeVerdicts) {
  std::vector<std::string> got;
  const std::vector<BigUInt> starts = {
      BigUInt{0}, BigUInt{990}, BigUInt::PowerOfTwo(64) - BigUInt{500},
      BigUInt::PowerOfTwo(200) + BigUInt{1}};
  RandomBigUInt rng(0x15b7);
  for (const BigUInt& first : starts) {
    std::size_t primes = 0;
    for (std::uint64_t i = 0; i < 1000; ++i) {
      if (IsProbablePrime(first + BigUInt{i}, rng)) ++primes;
    }
    got.push_back(first.ToHex() + ' ' + std::to_string(primes) + ' ' +
                  NextWord(rng));
  }
  ExpectRows(got, {
      "0 168 712e7aa91303d050",
      "3de 134 3cd8ee59cbf9fb2c",
      "fffffffffffffe0c 22 4be0b3879692d63d",
      "100000000000000000000000000000000000000000000000001 2 55aff52b5c31bc51",
  });
}

}  // namespace
}  // namespace mont::bignum
