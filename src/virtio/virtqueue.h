// Split virtqueue (VirtIO 1.x "split" format): descriptor table, available
// ring, used ring, laid out in host-visible shared memory.
//
// This is the baseline data transport the paper studies in §2.5. Both halves
// are implemented: the guest driver side (posts buffers, reaps completions)
// and the host device side (pops available buffers, pushes used entries).
// The guest side can run *unhardened* — parsing shared structures in place,
// trusting completion ids and lengths, exactly like pre-hardening Linux
// drivers — or *hardened* with the retrofit mitigations that the kernel
// community has been adding (validate ids, clamp lengths, single-fetch
// snapshots). The difference in both vulnerability and cost is what
// bench/paper_claims (§2.5) and bench_attack_resilience measure.
//
// Layout of one virtqueue at `base` within the shared region (all LE):
//   desc table : queue_size * 16 B   { addr u64, len u32, flags u16, next u16 }
//   avail ring : 4 + queue_size * 2  { flags u16, idx u16, ring[] u16 }
//   used ring  : 4 + queue_size * 8  { flags u16, idx u16, ring[] {id u32, len u32} }

#ifndef SRC_VIRTIO_VIRTQUEUE_H_
#define SRC_VIRTIO_VIRTQUEUE_H_

#include <deque>
#include <optional>
#include <vector>

#include "src/base/clock.h"
#include "src/base/status.h"
#include "src/hostsim/adversary.h"
#include "src/tee/shared_region.h"

namespace ciovirtio {

inline constexpr uint16_t kDescFlagNext = 1;
inline constexpr uint16_t kDescFlagWrite = 2;     // device-writable buffer
inline constexpr uint16_t kDescFlagIndirect = 4;

struct VirtqDesc {
  uint64_t addr = 0;  // offset within the shared region (stands in for GPA)
  uint32_t len = 0;
  uint16_t flags = 0;
  uint16_t next = 0;
};

// Byte layout of one virtqueue inside a shared region.
struct VirtqLayout {
  uint64_t base = 0;
  uint16_t queue_size = 0;  // power of two

  uint64_t DescOffset(uint16_t i) const { return base + 16ULL * i; }
  uint64_t AvailBase() const { return base + 16ULL * queue_size; }
  uint64_t AvailFlags() const { return AvailBase(); }
  uint64_t AvailIdx() const { return AvailBase() + 2; }
  uint64_t AvailRing(uint16_t i) const { return AvailBase() + 4 + 2ULL * i; }
  uint64_t UsedBase() const { return AvailBase() + 4 + 2ULL * queue_size; }
  uint64_t UsedFlags() const { return UsedBase(); }
  uint64_t UsedIdx() const { return UsedBase() + 2; }
  uint64_t UsedRing(uint16_t i) const { return UsedBase() + 4 + 8ULL * i; }
  uint64_t TotalSize() const { return UsedBase() + 4 + 8ULL * queue_size - base; }
};

struct UsedElem {
  uint32_t id = 0;
  uint32_t len = 0;
};

// --- Guest driver half -------------------------------------------------------

class VirtqueueDriver {
 public:
  VirtqueueDriver(ciotee::SharedRegion* region, VirtqLayout layout,
                  ciobase::CostModel* costs);

  uint16_t queue_size() const { return layout_.queue_size; }
  const VirtqLayout& layout() const { return layout_; }

  // Writes descriptor `i` (guest-owned until posted).
  void WriteDesc(uint16_t i, const VirtqDesc& desc);
  // Reads descriptor `i` with a single fetch into private memory.
  VirtqDesc ReadDescOnce(uint16_t i);
  // Reads descriptor `i` the unhardened way: each field is a separate fetch
  // from shared memory (independent TOCTOU windows).
  VirtqDesc ReadDescUnsafe(uint16_t i);

  // Posts a descriptor chain head on the available ring and bumps avail idx.
  void PostAvail(uint16_t head);

  // Number of new used entries according to the device (unvalidated read of
  // the shared used idx).
  uint16_t UsedPending();

  // Pops the next used entry. `single_fetch` snapshots the entry once;
  // otherwise the fields are re-read (double fetch).
  std::optional<UsedElem> PopUsed(bool single_fetch);

  // Pops up to `max` used entries with ONE poll/read of the shared used
  // index for the whole batch (the per-entry ring reads are unchanged, so
  // each entry still gets its own single-fetch snapshot). Appends to `out`
  // and returns the number popped. Bounded by queue_size per call, so an
  // index-storming host cannot force an unbounded loop.
  size_t PopUsedMany(bool single_fetch, size_t max, std::vector<UsedElem>& out);

  // Free-descriptor bookkeeping (guest-private).
  std::optional<uint16_t> AllocDesc();
  void FreeDesc(uint16_t i);
  size_t free_descs() const { return free_.size(); }

  // Ring reset (recovery protocol): zeroes the private shadows, rebuilds
  // the free list, and zeroes the shared avail/used index cells so nothing
  // from the old epoch reads as pending. The device half must reset too
  // (it adopts the guest's reset epoch) or its stale shadows would make it
  // reprocess or skip entries.
  void Reset();

 private:
  ciotee::SharedRegion* region_;
  VirtqLayout layout_;
  ciobase::CostModel* costs_;
  uint16_t avail_idx_ = 0;      // guest-private shadow
  uint16_t last_used_idx_ = 0;  // guest-private shadow
  // FIFO free list: maximizes the distance before a descriptor id is
  // recycled, so stale (replayed) completion ids are detectable instead of
  // aliasing a freshly reposted buffer (the ABA problem).
  std::deque<uint16_t> free_;
};

// --- Host device half --------------------------------------------------------

class VirtqueueDevice {
 public:
  VirtqueueDevice(ciotee::SharedRegion* region, VirtqLayout layout,
                  ciohost::Adversary* adversary);

  // Next available chain head, if any (device-private shadow of avail idx).
  std::optional<uint16_t> PopAvail();

  // Follows a descriptor chain from `head` (bounded), returning descriptors.
  std::vector<VirtqDesc> ReadChain(uint16_t head);

  // Publishes a completion. The adversary may inflate `len`, replay a stale
  // entry, or storm the published index (behavioral attacks).
  void PushUsed(uint32_t id, uint32_t len, uint32_t buffer_capacity);

  VirtqDesc ReadDesc(uint16_t i);

  // Device half of a ring reset: forget every shadow and zero the shared
  // used index (the cell this half owns).
  void Reset();

 private:
  ciotee::SharedRegion* region_;
  VirtqLayout layout_;
  ciohost::Adversary* adversary_;
  uint16_t last_avail_idx_ = 0;
  uint16_t used_idx_ = 0;
  std::optional<UsedElem> last_pushed_;
};

}  // namespace ciovirtio

#endif  // SRC_VIRTIO_VIRTQUEUE_H_
