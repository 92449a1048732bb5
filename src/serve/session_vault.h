// SessionVault: seals serialized cio::Session blobs for cross-instance
// migration, bound to a ciotee::MonotonicCounter for rollback protection.
//
// A migrating session is long-lived guest state crossing the untrusted host
// (via the confidential storage path), so it gets the same treatment as the
// blockio generation tables (PR 3): sealed, versioned, and freshness-bound.
//
// Sealed format (little-endian):
//   magic u32 'CSV1'
//   epoch u64            — counter value this export bumped to
//   ciphertext || tag    — AEAD over the session blob
// AAD covers magic+epoch; the nonce is derived from the epoch, which is
// unique per seal because the counter only moves forward.
//
// Open() enforces three properties, all failing as typed kTampered:
//   * integrity  — any bit flip or truncation fails the AEAD tag;
//   * freshness  — the epoch must be one this vault issued and not beyond
//                  the counter (a blob "from the future" is forged);
//   * single use — a successful Open retires the epoch, so a host replaying
//                  an already-imported blob (or restoring the fleet to a
//                  pre-migration snapshot and re-presenting the old export)
//                  is rejected instead of resurrecting stale sequence state.
//
// The vault models a fleet-shared sealing key + counter service: in a real
// deployment both sides derive it from attestation; here the bench/test
// constructs one vault and hands it to every instance.

#ifndef SRC_SERVE_SESSION_VAULT_H_
#define SRC_SERVE_SESSION_VAULT_H_

#include <set>

#include "src/base/bytes.h"
#include "src/base/status.h"
#include "src/tee/monotonic_counter.h"

namespace cioserve {

class SessionVault {
 public:
  // `counter` must outlive the vault (the instance's anti-rollback root).
  SessionVault(ciobase::ByteSpan vault_key, ciotee::MonotonicCounter* counter);

  // Seals a session blob under a fresh epoch (bumps the counter).
  ciobase::Buffer Seal(ciobase::ByteSpan blob);

  // Unseals; kTampered on integrity/freshness/replay violations.
  ciobase::Result<ciobase::Buffer> Open(ciobase::ByteSpan sealed);

  struct Stats {
    uint64_t sealed = 0;
    uint64_t opened = 0;
    uint64_t rejected = 0;  // tampered / rolled back / replayed
  };
  const Stats& stats() const { return stats_; }

 private:
  ciobase::Buffer key_;
  ciotee::MonotonicCounter* counter_;
  std::set<uint64_t> live_epochs_;  // issued, not yet consumed
  Stats stats_;
};

}  // namespace cioserve

#endif  // SRC_SERVE_SESSION_VAULT_H_
