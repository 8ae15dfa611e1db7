#pragma once

// Pooled storage for the pmpi message engine's per-operation state.
//
// SlotPool — generation-checked free list over a std::deque of slots,
// behind a (slot, generation) handle.  Steady state allocates no slot, a
// slot's address survives growth (deque), the pool's footprint is the
// high-water mark of concurrently live slots, and a stale handle resolves
// to nullptr instead of dangling.  Live slots are threaded on an
// intrusive per-owner list so a dying rank's slots are reclaimed in
// O(live-on-that-rank), never by scanning the pool.  Two pools use it:
//   - RequestPool: every nonblocking operation (RequestState), owned by
//     the rank that posted it;
//   - EagerPool: every eager payload in flight (EagerSlot), owned by its
//     destination rank.
//
// An eager payload is not copied at send time: its EagerSlot points at
// the sender's buffer, which MPI keeps valid and unmodified until the send
// is reported complete.  Only when the Runtime first reports the send done
// to the sender (wait/test), or is about to cancel the sender (killJob),
// are the bytes copied into the slot's own `snapshot` vector.  A receive
// that matches earlier copies straight from the sender's buffer, so a halo
// consumed before its sender waits moves once, like a real eager
// protocol's single copy.  Releasing the slot frees its snapshot.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <stdexcept>
#include <vector>

#include "pmpi/types.hpp"

namespace cbsim::pmpi {

/// Bookkeeping every pooled slot carries (SlotPool only).
struct PooledSlot {
  std::uint32_t gen = 1;       ///< bumped on release; matches live handles
  int ownerProc = -1;          ///< proc whose drain reclaims this slot
  std::uint32_t prevOwned = 0xffffffffu;  ///< intrusive per-owner list
  std::uint32_t nextOwned = 0xffffffffu;
};

/// Handle of an EagerSlot; like Request, generation 0 is the null handle.
struct EagerRef {
  std::uint32_t idx = 0;
  std::uint32_t gen = 0;
  [[nodiscard]] constexpr bool valid() const { return gen != 0; }
};

/// In-flight nonblocking operation.
struct RequestState : PooledSlot {
  bool done = false;
  bool isRecv = false;
  // Send side (eager): the payload's slot while it still reads the send
  // buffer; cleared once the payload is snapshotted.  (Declared here, it
  // fills padding: the slot stays 88 bytes.)
  EagerRef eager;
  int commId = -1;
  Status status;

  // Receive side: posted filter + destination buffer.
  int srcFilter = AnySource;
  int tagFilter = AnyTag;
  Bytes recvBuf;

  // Send side (rendezvous): the source buffer must stay valid until done.
  ConstBytes sendBuf;
};

/// One eager payload in flight; ownerProc is the destination rank.
struct EagerSlot : PooledSlot {
  bool orphaned = false;  ///< sender exited without completing the send:
                          ///< `src` points into its unwound frames
  ConstBytes src;  ///< the payload: the sender's buffer, or `snapshot`
  std::vector<std::byte> snapshot;  ///< the bytes, once the sender may
                                    ///< touch its buffer again
};

template <typename Slot, typename Handle>
class SlotPool {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  /// Takes a slot (recycled or fresh), links it at the head of the
  /// owner's intrusive list, and returns its handle.  Released slots were
  /// reset, so every field but the bookkeeping holds its default.
  Handle allocate(int ownerProc, std::uint32_t& ownerHead) {
    std::uint32_t idx;
    if (freeHead_ != kNone) {
      idx = freeHead_;
      freeHead_ = slots_[idx].nextOwned;  // free list reuses the link field
    } else {
      idx = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    Slot& s = slots_[idx];
    s.ownerProc = ownerProc;
    s.prevOwned = kNone;
    s.nextOwned = ownerHead;
    if (ownerHead != kNone) slots_[ownerHead].prevOwned = idx;
    ownerHead = idx;
    ++live_;
    return Handle{idx, s.gen};
  }

  /// Live slot behind `h`, or nullptr for a null or stale (already
  /// released) handle.
  [[nodiscard]] Slot* find(Handle h) {
    if (!h.valid() || h.idx >= slots_.size()) return nullptr;
    Slot& s = slots_[h.idx];
    return s.gen == h.gen ? &s : nullptr;
  }

  /// Live slot behind `h`; throws on a stale handle (callers that hold a
  /// request in a matching queue know it is live).
  [[nodiscard]] Slot& get(Handle h) {
    Slot* s = find(h);
    if (s == nullptr) throw std::logic_error("pmpi: stale slot handle");
    return *s;
  }

  /// Unlinks the slot from its owner list, resets it, bumps its
  /// generation (stale handles stop resolving), and recycles it.  No-op
  /// for stale handles.
  void release(Handle h, std::uint32_t& ownerHead) {
    Slot* s = find(h);
    if (s == nullptr) return;
    if (s->prevOwned != kNone) {
      slots_[s->prevOwned].nextOwned = s->nextOwned;
    } else {
      ownerHead = s->nextOwned;
    }
    if (s->nextOwned != kNone) slots_[s->nextOwned].prevOwned = s->prevOwned;
    std::uint32_t gen = s->gen + 1;
    if (gen == 0) gen = 1;  // 0 is the null-handle generation
    *s = Slot{};
    s->gen = gen;
    s->nextOwned = freeHead_;
    freeHead_ = h.idx;
    --live_;
  }

  /// Releases every slot on an owner list (rank drain).
  void releaseAll(std::uint32_t& ownerHead) {
    while (ownerHead != kNone) {
      release(Handle{ownerHead, slots_[ownerHead].gen}, ownerHead);
    }
  }

  /// Calls fn(slot) for every live slot on an owner list.
  template <typename Fn>
  void forEachOwned(std::uint32_t ownerHead, Fn fn) {
    for (std::uint32_t i = ownerHead; i != kNone; i = slots_[i].nextOwned) {
      fn(slots_[i]);
    }
  }

  [[nodiscard]] std::size_t slotCount() const { return slots_.size(); }
  [[nodiscard]] std::size_t liveCount() const { return live_; }
  /// Bytes of slot storage (the pool's high-water footprint).
  [[nodiscard]] std::size_t capacityBytes() const {
    return slots_.size() * sizeof(Slot);
  }

 private:
  std::deque<Slot> slots_;
  std::size_t live_ = 0;
  std::uint32_t freeHead_ = kNone;
};

using RequestPool = SlotPool<RequestState, Request>;
using EagerPool = SlotPool<EagerSlot, EagerRef>;

}  // namespace cbsim::pmpi
