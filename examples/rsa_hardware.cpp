// rsa_hardware — the paper's target application (§4.5): RSA on the
// modular exponentiator.
//
// Generates a fresh RSA key with the library's own primality testing,
// encrypts and decrypts a message through the hardware-modelled
// exponentiator, and reports how long the private-key operation would take
// on the modelled Virtex-E at the paper's clock.
//
//   $ ./examples/rsa_hardware [modulus_bits=512]
#include <cstdio>
#include <cstdlib>

#include "bignum/random.hpp"
#include "core/netlist_gen.hpp"
#include "crypto/rsa.hpp"
#include "fpga/device_model.hpp"

int main(int argc, char** argv) {
  const std::size_t bits =
      argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 512;
  std::printf("=== RSA-%zu on the systolic Montgomery exponentiator ===\n\n",
              bits);

  mont::bignum::RandomBigUInt rng(0x45a512u);
  std::printf("generating key (library Miller-Rabin)...\n");
  const mont::crypto::RsaKeyPair key = mont::crypto::GenerateRsaKey(bits, rng);
  std::printf("  n = 0x%s\n  e = %s\n", key.n.ToHex().c_str(),
              key.e.ToDec().c_str());

  const mont::bignum::BigUInt message = rng.Below(key.n);
  std::printf("\nmessage    = 0x%s\n", message.ToHex().c_str());
  const mont::bignum::BigUInt ciphertext = RsaPublic(key, message);
  std::printf("ciphertext = 0x%s\n", ciphertext.ToHex().c_str());

  mont::core::EngineStats stats;
  const mont::bignum::BigUInt decrypted =
      RsaPrivate(key, ciphertext, "bit-serial", &stats);
  std::printf("decrypted  = 0x%s  -> round trip %s\n",
              decrypted.ToHex().c_str(),
              decrypted == message ? "ok" : "FAILED");
  std::printf("CRT check  = %s\n",
              RsaPrivateCrt(key, ciphertext) == decrypted ? "ok" : "FAILED");

  // What would this cost on the modelled FPGA?
  const auto gen = mont::core::BuildMmmcNetlist(bits);
  const auto fpga = mont::fpga::AnalyzeNetlist(*gen.netlist);
  const std::uint64_t total_cycles = stats.engine_cycles;
  std::printf("\nprivate-key op on the modelled V812E (-8):\n");
  std::printf("  %llu MMMs (%llu squarings + %llu multiplies + pre/post), "
              "%llu cycles\n",
              static_cast<unsigned long long>(stats.mmm_invocations),
              static_cast<unsigned long long>(stats.squarings),
              static_cast<unsigned long long>(stats.multiplications),
              static_cast<unsigned long long>(total_cycles));
  std::printf("  MMMC: %zu slices, Tp = %.3f ns -> %.3f ms per decryption\n",
              fpga.slices, fpga.clock_period_ns,
              static_cast<double>(total_cycles) * fpga.clock_period_ns * 1e-6);
  return 0;
}
