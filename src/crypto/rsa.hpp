// rsa.hpp — RSA on top of the Montgomery machinery (the paper's §4.5
// application).  Keys are generated with the repo's own primality testing;
// every exponentiation runs on a registry-selected multiplication backend
// (core/engine.hpp) — fast software arithmetic by default, any
// hardware-modelled datapath by name — so the examples and benches can
// quote cycle counts for real workloads on any engine.
//
// The CRT private-key path maps onto the dual-channel array: its two
// half-size exponentiations are independent and (for keys from
// GenerateRsaKey) share a bit length, so they run as one co-scheduled
// pair (two MMMs per 3l+5 cycles).  Every CRT entry point is a short
// composition of one core (the end of this header): CrtKey prepares a key
// once, the halves run in-line (RsaPrivateCrt*) or as ExpService jobs
// (SubmitCrtHalves: RsaSignBatch, the signing service), and
// CrtKey::Recombine is the one Garner step, gated by the Bellcore/Lenstra
// check sig^e mod n == input — a fault in either half would otherwise
// leak a factorisation of n through the broken signature.
//
// The blinded private-key paths (RsaBlindingOptions) are the sca lab's
// countermeasure: base blinding by r^e and/or exponent randomization by
// k*lambda(n), bit-identical to the unblinded paths and validated at gate
// level in tests/test_sca_attack.cpp (CPA collapses to chance).
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "bignum/biguint.hpp"
#include "bignum/random.hpp"
#include "core/engine.hpp"
#include "core/exp_service.hpp"
#include "obs/trace.hpp"

namespace mont::crypto {

struct RsaKeyPair {
  bignum::BigUInt n;  ///< modulus p*q
  bignum::BigUInt e;  ///< public exponent
  bignum::BigUInt d;  ///< private exponent
  bignum::BigUInt p;  ///< prime factor
  bignum::BigUInt q;  ///< prime factor
};

/// Generates an RSA key with a modulus of exactly `modulus_bits` bits
/// (modulus_bits must be even and >= 32).  The public exponent is 65537
/// unless it divides phi, in which case the next Fermat-style candidate is
/// used.
RsaKeyPair GenerateRsaKey(std::size_t modulus_bits, bignum::RandomBigUInt& rng);

/// m^e mod n on the named registry backend; message must be < n.
bignum::BigUInt RsaPublic(const RsaKeyPair& key, const bignum::BigUInt& m,
                          std::string_view engine = "word-mont");

/// c^d mod n, straightforward private-key operation; `stats` (optional)
/// receives the exponentiation's counts and cycles on the named backend.
bignum::BigUInt RsaPrivate(const RsaKeyPair& key, const bignum::BigUInt& c,
                           std::string_view engine = "word-mont",
                           core::EngineStats* stats = nullptr);

/// Side-channel blinding for the private-key paths (the countermeasure
/// the sca lab's CPA engine validates: blinded executions degrade the
/// attack to chance while the outputs stay bit-identical).
struct RsaBlindingOptions {
  /// Multiplicative base blinding: the exponentiation runs on
  /// c * r^e mod n for a fresh unit r per call and the result is
  /// unblinded with r^-1 — the device never exponentiates a value the
  /// attacker can predict intermediates from.
  bool blind_base = true;
  /// Exponent randomization: adds k * lambda(n) (plain path) or
  /// k * (p-1) / k * (q-1) (CRT halves) with a fresh k of this many bits
  /// per call, randomizing the square/multiply schedule.  0 disables it.
  std::size_t exponent_blind_bits = 0;
};

/// A multiplicative blinding unit r (1 < r < n, gcd(r, n) = 1) and its
/// inverse mod n — the randomness behind base blinding.  Exposed so the
/// sca lab's benches and tests blind executions over arbitrary moduli
/// with the same rejection rule the RSA paths use.
struct RsaBlindingUnit {
  bignum::BigUInt r;
  bignum::BigUInt r_inv;
};
RsaBlindingUnit MakeRsaBlindingUnit(const bignum::BigUInt& n,
                                    bignum::RandomBigUInt& rng);

/// The base-blinding step on its own: c * r^e mod n for a fresh unit r —
/// exactly what the blinded private-key paths feed their exponentiation.
/// Exposed so the sca lab's captures trace the production blinding step
/// rather than a re-implementation.  (The unit is discarded: capture-side
/// callers never unblind.)
bignum::BigUInt BlindRsaBase(const bignum::BigUInt& c,
                             const bignum::BigUInt& e,
                             const bignum::BigUInt& n,
                             bignum::RandomBigUInt& rng);

/// Carmichael lambda(n) = lcm(p-1, q-1), the exponent-blinding group
/// order.  Throws std::invalid_argument unless key.p * key.q == key.n.
bignum::BigUInt RsaLambda(const RsaKeyPair& key);

/// Blinded c^d mod n: bit-identical to RsaPrivate for every input, with
/// the intermediate values (and optionally the operation schedule)
/// decorrelated from c.  `rng` supplies the blinding randomness (callers
/// seed it; all repo randomness is deterministic by seed).
bignum::BigUInt RsaPrivateBlinded(const RsaKeyPair& key,
                                  const bignum::BigUInt& c,
                                  bignum::RandomBigUInt& rng,
                                  const RsaBlindingOptions& options = {},
                                  std::string_view engine = "word-mont");

/// Blinded CRT private-key operation: base blinding is applied mod n
/// before the halves split (so both half-exponentiations run on blinded
/// residues), exponent blinding per CRT half, recombination unblinds, and
/// the Bellcore/Lenstra sig^e check runs against the *original* input
/// before release.  Bit-identical to RsaPrivateCrt.
bignum::BigUInt RsaPrivateCrtBlinded(const RsaKeyPair& key,
                                     const bignum::BigUInt& c,
                                     bignum::RandomBigUInt& rng,
                                     const RsaBlindingOptions& options = {},
                                     std::string_view engine = "word-mont");

/// c^d mod n using the CRT (two half-size exponentiations, ~4x faster):
/// one PairedModExp pair when the backend has pairable_streams and p, q
/// share a bit length, two solo ModExp calls otherwise.  `stats` gets the
/// pair's stats, or for the solo calls their MMMs as single issues and
/// their summed cycles.
/// Throws std::invalid_argument for malformed CRT keys (p == q, or
/// p*q != n) and std::runtime_error when the Bellcore check fails.
bignum::BigUInt RsaPrivateCrt(const RsaKeyPair& key, const bignum::BigUInt& c,
                              std::string_view engine = "word-mont",
                              core::EngineStats* stats = nullptr);

/// Signs (raw RSA private-key operation, no padding) every message through
/// `service` with a pipelined CRT (SubmitCrtHalves): the scheduler pairs
/// equal-length halves opportunistically, including across messages, and
/// recombination plus the Bellcore check run on the service's
/// continuation thread.  Returns one signature per message; rethrows an
/// engine's own exception, and throws std::runtime_error if any
/// recombined signature fails verification.
std::vector<bignum::BigUInt> RsaSignBatch(
    const RsaKeyPair& key, std::span<const bignum::BigUInt> messages,
    core::ExpService& service);

/// Garner recombination m = mq + q * ((q^-1 (mp - mq)) mod p), with
/// q_inv = q^-1 mod p precomputed by the caller (once per key).
bignum::BigUInt RsaCrtRecombine(const RsaKeyPair& key,
                                const bignum::BigUInt& q_inv,
                                const bignum::BigUInt& mp,
                                const bignum::BigUInt& mq);

/// The Bellcore/Lenstra release gate as a predicate: sig^e mod n == input
/// on `verify_engine` (a mod-n backend hoisted once per key).
bool RsaCrtResultOk(const core::MmmEngine& verify_engine,
                    const RsaKeyPair& key, const bignum::BigUInt& input,
                    const bignum::BigUInt& sig);

// ---------------------------------------------------------------------------
// The CRT core
// ---------------------------------------------------------------------------

/// Where the CRT core's lifecycle events go: crt.recombine (arg
/// bellcore_ok) and bellcore.fault (arg attempt), stamped with `id` at
/// `clock` ticks (the caller's service clock; required whenever `tracer`
/// is set).  A null or disabled tracer emits nothing.
struct CrtTrace {
  obs::Tracer* tracer = nullptr;
  const core::Clock* clock = nullptr;
  std::uint64_t id = 0;
  std::uint64_t attempt = 0;
};

/// The prepare stage of private-key CRT, built once per key.
class CrtKey {
 public:
  /// Throws std::invalid_argument when p == q or p*q != n: Garner
  /// recombination would otherwise return a well-formed wrong answer.
  explicit CrtKey(const RsaKeyPair& key);

  const RsaKeyPair& key() const { return key_; }
  const bignum::BigUInt& dp() const { return dp_; }  ///< d mod (p-1)
  const bignum::BigUInt& dq() const { return dq_; }  ///< d mod (q-1)

  /// Garner recombination of the halves, gated by the Bellcore check
  /// against `input`: the signature, or nullopt when sig^e mod n != input
  /// (a fault — the value must not be released).
  std::optional<bignum::BigUInt> Recombine(const bignum::BigUInt& input,
                                           const bignum::BigUInt& mp,
                                           const bignum::BigUInt& mq,
                                           const CrtTrace& trace = {}) const;

 private:
  RsaKeyPair key_;
  bignum::BigUInt dp_, dq_, q_inv_;  ///< q_inv_ = q^-1 mod p
  /// The word-mont mod-n engine of the Bellcore check.
  std::unique_ptr<const core::MmmEngine> verify_engine_;
};

/// One joined pair of asynchronous CRT halves.
struct CrtHalves {
  bignum::BigUInt mp, mq;
  /// A half's deadline expired before engine dispatch (mp/mq invalid).
  bool cancelled = false;
  /// A half's engine failed (mp/mq invalid).
  std::exception_ptr error;
};

/// Submits input^dp mod p, then input^dq mod q, through `service` with
/// `options`, and runs `done` exactly once on the service's continuation
/// thread when both halves have resolved (emitting crt.join at the join,
/// under options.trace_id).  `key` need only outlive the call.  Throws
/// what ExpService::Submit throws.
void SubmitCrtHalves(core::ExpService& service, const CrtKey& key,
                     const bignum::BigUInt& input,
                     const core::ExpJobOptions& options,
                     std::function<void(CrtHalves&)> done);

}  // namespace mont::crypto
