#pragma once

// Arena storage for the pmpi message engine's per-operation state.
//
// RequestPool — generation-checked free list over a std::deque of slots
// behind the Request handle (types.hpp).  Replaces one
// shared_ptr<RequestState> heap allocation (plus control block) per
// nonblocking operation with slot recycling: steady state allocates
// nothing, a slot's address survives growth (deque), and the pool's
// footprint is the high-water mark of concurrently live operations, not
// the operation count.  Live requests are threaded on an intrusive
// per-owner list so a dying rank's slots are reclaimed in
// O(live-on-that-rank), never by scanning the pool.
//
// PayloadArena — per-destination-rank storage for in-flight eager
// payloads.  A payload is copied in at send time and referenced by
// (offset, length); blocks are recycled by exact size while traffic is in
// flight and the whole arena resets to offset zero whenever it drains,
// so the arena's size tracks peak concurrent eager bytes, not cumulative
// traffic.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <stdexcept>
#include <vector>

#include "pmpi/types.hpp"

namespace cbsim::pmpi {

/// In-flight nonblocking operation.
struct RequestState {
  bool done = false;
  bool isRecv = false;
  Status status;

  // Receive side: posted filter + destination buffer.
  int commId = -1;
  int srcFilter = AnySource;
  int tagFilter = AnyTag;
  Bytes recvBuf;

  // Send side (rendezvous): the source buffer must stay valid until done.
  ConstBytes sendBuf;

  // Pool bookkeeping (RequestPool only).
  std::uint32_t gen = 1;       ///< bumped on release; matches live handles
  int ownerProc = -1;          ///< proc whose drain reclaims this slot
  std::uint32_t prevOwned = 0xffffffffu;  ///< intrusive per-owner list
  std::uint32_t nextOwned = 0xffffffffu;
};

class RequestPool {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  /// Takes a slot (recycled or fresh), resets its operation fields, links
  /// it at the head of the owner's intrusive list, and returns its handle.
  Request allocate(int ownerProc, std::uint32_t& ownerHead) {
    std::uint32_t idx;
    if (freeHead_ != kNone) {
      idx = freeHead_;
      freeHead_ = slots_[idx].nextOwned;  // free list reuses the link field
    } else {
      idx = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    RequestState& s = slots_[idx];
    const std::uint32_t gen = s.gen;
    s = RequestState{};  // reset operation fields
    s.gen = gen;
    s.ownerProc = ownerProc;
    s.prevOwned = kNone;
    s.nextOwned = ownerHead;
    if (ownerHead != kNone) slots_[ownerHead].prevOwned = idx;
    ownerHead = idx;
    ++live_;
    return Request{idx, gen};
  }

  /// Live state behind `h`, or nullptr for a null or stale (already
  /// released) handle.
  [[nodiscard]] RequestState* find(Request h) {
    if (!h.valid() || h.idx >= slots_.size()) return nullptr;
    RequestState& s = slots_[h.idx];
    return s.gen == h.gen ? &s : nullptr;
  }
  [[nodiscard]] const RequestState* find(Request h) const {
    return const_cast<RequestPool*>(this)->find(h);
  }

  /// Live state behind `h`; throws on a stale handle (callers that hold a
  /// request in a matching queue know it is live).
  [[nodiscard]] RequestState& get(Request h) {
    RequestState* s = find(h);
    if (s == nullptr) throw std::logic_error("pmpi: stale request handle");
    return *s;
  }
  [[nodiscard]] const RequestState& get(Request h) const {
    return const_cast<RequestPool*>(this)->get(h);
  }

  /// Unlinks the slot from its owner list, bumps its generation (stale
  /// handles stop resolving), and recycles it.  No-op for stale handles.
  void release(Request h, std::uint32_t& ownerHead) {
    RequestState* s = find(h);
    if (s == nullptr) return;
    if (s->prevOwned != kNone) {
      slots_[s->prevOwned].nextOwned = s->nextOwned;
    } else {
      ownerHead = s->nextOwned;
    }
    if (s->nextOwned != kNone) slots_[s->nextOwned].prevOwned = s->prevOwned;
    if (++s->gen == 0) s->gen = 1;  // 0 is the null-handle generation
    s->recvBuf = Bytes{};
    s->sendBuf = ConstBytes{};
    s->nextOwned = freeHead_;
    freeHead_ = h.idx;
    --live_;
  }

  /// Releases every slot on an owner list (rank drain).
  void releaseAll(std::uint32_t& ownerHead) {
    while (ownerHead != kNone) {
      release(Request{ownerHead, slots_[ownerHead].gen}, ownerHead);
    }
  }

  [[nodiscard]] std::size_t slotCount() const { return slots_.size(); }
  [[nodiscard]] std::size_t liveCount() const { return live_; }
  /// Bytes of slot storage (the pool's high-water footprint).
  [[nodiscard]] std::size_t capacityBytes() const {
    return slots_.size() * sizeof(RequestState);
  }

 private:
  std::deque<RequestState> slots_;
  std::size_t live_ = 0;
  std::uint32_t freeHead_ = kNone;
};

class PayloadArena {
 public:
  /// Copies `data` into the arena and returns its offset.  Prefers an
  /// exact-size recycled block (the homogeneous-message common case);
  /// otherwise bump-extends.
  std::uint32_t store(ConstBytes data) {
    const auto len = static_cast<std::uint32_t>(data.size());
    ++outstanding_;
    for (std::size_t i = 0; i < freeBlocks_.size(); ++i) {
      if (freeBlocks_[i].len != len) continue;
      const std::uint32_t off = freeBlocks_[i].off;
      freeBlocks_[i] = freeBlocks_.back();
      freeBlocks_.pop_back();
      std::copy(data.begin(), data.end(),
                buf_.begin() + static_cast<std::ptrdiff_t>(off));
      return off;
    }
    const auto off = static_cast<std::uint32_t>(buf_.size());
    buf_.insert(buf_.end(), data.begin(), data.end());
    peakBytes_ = buf_.size() > peakBytes_ ? buf_.size() : peakBytes_;
    return off;
  }

  [[nodiscard]] const std::byte* at(std::uint32_t off) const {
    return buf_.data() + off;
  }

  /// Returns a block.  When the last outstanding payload drains, the
  /// arena resets to offset zero (capacity retained for the next burst).
  void release(std::uint32_t off, std::uint32_t len) {
    if (outstanding_ > 0) --outstanding_;  // saturate: brokenDedupForTest
    if (outstanding_ == 0) {               // double-delivers double-release
      buf_.clear();
      freeBlocks_.clear();
      return;
    }
    freeBlocks_.push_back(Block{off, len});
  }

  /// Drops all storage (rank drain; nothing will be consumed again).
  void reset() {
    buf_ = {};
    freeBlocks_ = {};
    outstanding_ = 0;
  }

  [[nodiscard]] std::size_t outstanding() const { return outstanding_; }
  [[nodiscard]] std::size_t capacityBytes() const { return buf_.capacity(); }
  [[nodiscard]] std::size_t peakBytes() const { return peakBytes_; }

 private:
  struct Block {
    std::uint32_t off;
    std::uint32_t len;
  };

  std::vector<std::byte> buf_;
  std::vector<Block> freeBlocks_;
  std::size_t outstanding_ = 0;
  std::size_t peakBytes_ = 0;
};

}  // namespace cbsim::pmpi
