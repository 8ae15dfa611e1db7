#pragma once

// The pmpi Runtime: process management, communicator bookkeeping, and the
// message-progress engine (matching, eager/rendezvous protocols).
//
// This plays the role ParaStation MPI + psmgmt play on the real prototype:
// a single software stack that spans Cluster and Booster and implements a
// heterogeneous *global* MPI, including MPI_Comm_spawn across modules
// (paper section III-A).

#include <cstdint>
#include <functional>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "extoll/fabric.hpp"
#include "hw/machine.hpp"
#include "mc/choice.hpp"
#include "pmpi/match_fifo.hpp"
#include "pmpi/registry.hpp"
#include "pmpi/request_pool.hpp"
#include "pmpi/types.hpp"
#include "rm/resource_manager.hpp"
#include "sim/engine.hpp"

namespace cbsim::pmpi {

class Env;
class Runtime;

/// Monotonic per-communicator counters backed by a flat array.  Comm ids
/// are dense Runtime-local indices, and these counters are bumped on every
/// collective — a std::map node hop per lookup is measurable there.
class SeqByComm {
 public:
  int next(int commId) {
    const auto id = static_cast<std::size_t>(commId);
    if (id >= seq_.size()) seq_.resize(id + 1, 0);
    return seq_[id]++;
  }

 private:
  std::vector<int> seq_;
};

/// One MPI process.
struct Proc {
  int idx = -1;      ///< global index in Runtime::procs_
  int jobId = -1;
  int rank = -1;     ///< rank within the job's world
  int nodeId = -1;
  int threads = 1;   ///< OpenMP-style threads this rank may use
  bool started = false;  ///< its body ran (so its drain guard will fire)
  sim::Process* sproc = nullptr;  ///< null once drained before it started
  Comm world;
  Comm parent;       ///< intercomm to the spawning job, if any

  /// Compact enough (48 bytes) that the transport closures carrying one
  /// stay inside sim::EventFn's inline buffer.  An eager message carries
  /// no bytes, only a handle to its EagerSlot in Runtime::eager_: the
  /// payload is read from the sender's buffer, or from the slot's own
  /// snapshot once the sender was allowed to touch that buffer again.
  struct UnexpectedMsg {
    int commId;
    int srcRank;
    int tag;
    std::size_t bytes;
    EagerRef payload;              ///< eager only; null for rendezvous
                                   ///< and for sends to an exited rank
    bool rendezvous = false;
    int srcProcIdx = -1;           ///< rendezvous: who to CTS
    Request sendReq;               ///< rendezvous: sender's request
  };
  static_assert(sizeof(UnexpectedMsg) <= 48,
                "UnexpectedMsg must stay small: transport closures carrying "
                "one must fit sim::EventFn's inline buffer");
  MatchFifo<UnexpectedMsg> unexpected;
  MatchFifo<Request> posted;
  /// Bytes of eager payloads addressed to this rank that were snapshotted
  /// (their senders completed the send, or were killed, before a receive
  /// consumed them): live now, and the most ever live at once.
  std::size_t snapshotBytes = 0;
  std::size_t snapshotPeakBytes = 0;
  /// Heads of this rank's live slots in Runtime::requests_ (requests it
  /// posted) and Runtime::eager_ (payloads addressed to it); intrusive
  /// lists, drained in O(live) when the rank dies.
  std::uint32_t ownedRequests = RequestPool::kNone;
  std::uint32_t ownedEager = EagerPool::kNone;

  // Accounting for the paper's overhead metric (section IV-C: 3-4% MPI
  // overhead per solver) — maintained by Env.
  double computeSec = 0.0;
  double commSec = 0.0;
  double ioSec = 0.0;

  /// Per-communicator sequence counters; they stay aligned across ranks
  /// because MPI requires collectives to be called in the same order.
  SeqByComm collSeq;
  SeqByComm splitSeq;
};

struct Job {
  int id = -1;
  std::string appName;
  std::vector<int> procIdx;
  Comm world;
  int liveProcs = 0;
  int allocationId = -1;  ///< released when the job drains (if >= 0)
};

/// Launch description for a top-level job.
struct JobSpec {
  std::string appName;
  std::vector<int> nodes;   ///< explicit node ids (one rank per entry per slot)
  int procsPerNode = 1;
  int threadsPerProc = 0;   ///< 0 = node threads / procsPerNode
};

/// Options for Env::commSpawn.
struct SpawnOptions {
  hw::NodeKind partition = hw::NodeKind::Booster;
  int procsPerNode = 1;
  int threadsPerProc = 0;
  int root = 0;
  /// Explicit node ids; when empty, the resource manager picks
  /// `ceil(nprocs / procsPerNode)` free nodes of `partition`.
  std::vector<int> nodes;
};

class Runtime {
 public:
  Runtime(hw::Machine& machine, extoll::Fabric& fabric, rm::ResourceManager& rm,
          AppRegistry& registry, ProtocolParams params = {});
  /// Cancels any still-live rank processes before the runtime's state
  /// (which their closures reference) goes away.
  ~Runtime();
  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Starts a job immediately on explicit nodes (the "execution script"
  /// path of the paper: the Booster binary is started first and spawns
  /// the Cluster side itself).
  Job& launch(const JobSpec& spec);
  /// Convenience: allocate `nodeCount` nodes of `kind` via the resource
  /// manager and launch on them.
  Job& launch(const std::string& appName, hw::NodeKind kind, int nodeCount,
              int procsPerNode = 1, int threadsPerProc = 0);

  [[nodiscard]] const Job& job(int id) const { return jobs_.at(static_cast<std::size_t>(id)); }

  /// Cancels every live rank of a job — node-failure injection (see scr/).
  void killJob(int jobId);
  [[nodiscard]] bool jobDone(int id) const { return job(id).liveProcs == 0; }
  [[nodiscard]] int jobCount() const { return static_cast<int>(jobs_.size()); }
  /// Id of the job with a live rank on `nodeId`, or -1.  Node-targeted
  /// fault injection (chaos plans name nodes, not jobs) resolves the
  /// victim job at fire time through this.
  [[nodiscard]] int jobOnNode(int nodeId) const {
    for (const Proc& p : procs_) {
      if (p.nodeId == nodeId && p.sproc != nullptr && p.sproc->live()) {
        return p.jobId;
      }
    }
    return -1;
  }

  /// Invoked (as a zero-delay engine event) whenever a job's last rank
  /// drains, with the job id.  Lets a supervisor react to failures
  /// promptly — relaunching from inside the event loop instead of waiting
  /// for the queue to empty (by which time repaired nodes would mask the
  /// loss).  One hook; pass {} to detach.
  void setJobDrainHook(std::function<void(int)> hook) {
    drainHook_ = std::move(hook);
  }

  /// Transport-level diagnosis: peers declared unreachable after the
  /// retransmit budget ran out (each one tore down the involved jobs).
  [[nodiscard]] int unreachablePeers() const { return unreachablePeers_; }

  /// Attaches a scheduling chooser (mc/choice.hpp); nullptr detaches.
  /// With a chooser attached, wildcard receive matching and retransmit
  /// ordering consult it; without one (or with DeterministicChooser) the
  /// runtime behaves byte-identically to the historical default.  The
  /// chooser must outlive the runtime or be detached first.
  void setChooser(mc::Chooser* chooser) { chooser_ = chooser; }
  [[nodiscard]] mc::Chooser* chooser() const { return chooser_; }

  [[nodiscard]] hw::Machine& machine() const { return machine_; }
  [[nodiscard]] extoll::Fabric& fabric() const { return fabric_; }
  [[nodiscard]] sim::Engine& engine() const { return machine_.engine(); }
  [[nodiscard]] const ProtocolParams& params() const { return params_; }
  [[nodiscard]] rm::ResourceManager& resources() const { return rm_; }

  [[nodiscard]] const Proc& proc(int idx) const { return procs_[static_cast<std::size_t>(idx)]; }

  /// Footprint of the hot per-rank state — what "a world of N ranks" costs
  /// beyond the application's own buffers.  All values are structural
  /// (element counts x sizeof, capacities and peaks) or simulated state
  /// (snapshot bytes still held) — never allocator internals — so they
  /// are byte-identical across process backends and worker counts.
  struct MemoryStats {
    std::size_t procSlabBytes = 0;       ///< ranks x sizeof(Proc)
    std::size_t requestSlots = 0;        ///< pool high-water slot count
    std::size_t requestPoolBytes = 0;    ///< slots x sizeof(RequestState)
    /// Eager payload snapshots only (sends the sender completed, or was
    /// killed during, before the receive consumed them), in exact bytes;
    /// a payload read straight from the sender's buffer is never copied.
    std::size_t payloadArenaBytes = 0;   ///< sum of per-rank live bytes
    std::size_t payloadArenaPeakBytes = 0;  ///< sum of per-rank peaks
    std::size_t matchQueueBytes = 0;     ///< posted+unexpected backing stores
    std::size_t matchQueuePeakEntries = 0;  ///< sum of per-queue peak depths
    std::size_t channelCount = 0;
    std::size_t channelBytes = 0;        ///< channels x sizeof(map entry)
  };
  [[nodiscard]] MemoryStats memoryStats() const;
  /// Eager payloads sent and not yet consumed or reclaimed; 0 once every
  /// rank of every job has exited.
  [[nodiscard]] std::size_t eagerPayloadsInFlight() const {
    return eager_.liveCount();
  }

  /// Aggregate time accounting over a job's ranks.
  struct JobTimes {
    double computeSec = 0.0;
    double commSec = 0.0;
    double ioSec = 0.0;
  };
  [[nodiscard]] JobTimes jobTimes(int id) const;

 private:
  friend class Env;

  // ---- Communicator bookkeeping -------------------------------------------
  /// Constant-time rank lookup over one side of a communicator.  World
  /// comms are built from sequentially appended proc indices, so they are
  /// contiguous ascending ranges and collapse to a (base, size) pair —
  /// rankIn() was an O(n) scan per send, which dominated at 10k+ ranks.
  /// Split/dup comms fall back to a sorted (procIdx, rank) index.
  struct GroupIndex {
    int base = -1;  ///< contiguous fast path: rank = procIdx - base
    std::vector<std::pair<int, int>> sorted;  ///< (procIdx, rank); base < 0
    void build(const std::vector<int>& members);
    /// Rank of `procIdx` in the indexed group, or -1.
    [[nodiscard]] int rankOf(int procIdx, std::size_t size) const;
  };

  struct CommInfo {
    int id = -1;
    bool inter = false;
    std::vector<int> groupA;  ///< proc indices
    std::vector<int> groupB;  ///< empty for intracomms
    GroupIndex indexA;
    GroupIndex indexB;
    [[nodiscard]] int rankInA(int procIdx) const {
      return indexA.rankOf(procIdx, groupA.size());
    }
    [[nodiscard]] int rankInB(int procIdx) const {
      return indexB.rankOf(procIdx, groupB.size());
    }
  };

  [[nodiscard]] const CommInfo& commInfo(Comm c) const;
  /// Rank of `procIdx` in its own side of `c`; -1 if not a member.
  [[nodiscard]] int rankIn(Comm c, int procIdx) const;
  /// Size of the caller's local group / the remote group.
  [[nodiscard]] int localSize(Comm c, int procIdx) const;
  [[nodiscard]] int remoteSize(Comm c, int procIdx) const;
  /// Destination proc index for a send to rank `dstRank` through `c`.
  [[nodiscard]] int sendTarget(Comm c, int srcProcIdx, int dstRank) const;
  Comm makeIntracomm(std::vector<int> members);
  Comm makeIntercomm(std::vector<int> groupA, std::vector<int> groupB);
  /// Deterministic communicator interning for collective creation calls
  /// (split/dup): the first caller materializes, the rest look up.
  Comm internComm(std::uint64_t key, const std::vector<int>& members);

  // ---- Message engine -------------------------------------------------------
  enum class SendMode { Standard, Synchronous };

  /// Called from within the sender's process context (Env).  Returns the
  /// send request; for eager standard sends it is already complete.
  Request postSend(Proc& src, Comm c, int dstRank, int tag, ConstBytes data,
                   SendMode mode);
  Request postRecv(Proc& dst, Comm c, int srcRank, int tag, Bytes buf);

  void deliverEager(int dstProcIdx, Proc::UnexpectedMsg msg);
  void deliverRts(int dstProcIdx, Proc::UnexpectedMsg msg);

  // ---- Reliable transport ---------------------------------------------------
  // Ack/retransmit channel per directed proc pair (ProtocolParams::reliable).
  // Frames carry per-channel sequence numbers; the receive side acks every
  // arrival, de-duplicates spurious retransmits, and releases frames to the
  // matching engine strictly in send order (a reorder buffer bridges gaps
  // left by dropped frames), preserving MPI's non-overtaking guarantee.
  struct TransportChannel {
    struct Inflight {
      double bytes = 0.0;
      std::function<void()> deliver;  ///< moved to the receiver on first arrival
      int tries = 0;
      sim::SimTime rto;
    };
    std::uint32_t nextSendSeq = 0;
    std::uint32_t nextDeliverSeq = 0;
    /// Sender side, by seq (retransmit window).
    std::map<std::uint32_t, Inflight> inflight;
    /// Receiver side gap buffer, by seq.
    std::map<std::uint32_t, std::function<void()>> reorder;
  };

  /// Sends `bytes` from proc `srcIdx` to proc `dstIdx` and runs `deliver`
  /// at the destination.  Plain fabric send when reliable mode is off;
  /// otherwise exactly-once, in-order delivery via the channel machinery.
  void transportSend(int srcIdx, int dstIdx, double bytes,
                     std::function<void()> deliver);
  TransportChannel& channel(int srcIdx, int dstIdx);
  void transmitFrame(int srcIdx, int dstIdx, std::uint32_t seq);
  void onFrameArrive(int srcIdx, int dstIdx, std::uint32_t seq);
  void onFrameAck(int srcIdx, int dstIdx, std::uint32_t seq);
  void onFrameTimeout(int srcIdx, int dstIdx, std::uint32_t seq);
  void onPeerUnreachable(int srcIdx, int dstIdx, std::uint32_t seq);
  /// True while the proc's simulated process can still consume results —
  /// guards late message completions against writing into buffers on a
  /// cancelled rank's unwound stack.
  [[nodiscard]] bool procLive(const Proc& p) const;
  /// Matches a newly arrived message against posted receives or a newly
  /// posted receive against the unexpected queue.
  bool tryMatchArrival(Proc& dst, Proc::UnexpectedMsg& msg);
  void completeEagerRecv(Proc& dst, Request req, Proc::UnexpectedMsg msg);
  /// Copies an eager payload into `out` and frees its slot.  A stale
  /// handle copies nothing; an orphaned payload throws.
  void consumeEager(const Proc::UnexpectedMsg& msg, Bytes out);
  /// Frees an eager payload's slot (and its snapshot) unread.
  void dropEager(EagerRef h);
  /// Copies a send's payload out of the sender's buffer into its slot's
  /// snapshot, if a receive has not consumed it yet: called whenever the
  /// sender may next touch its buffer.
  void snapshotEager(RequestState& send);
  void startRendezvousTransfer(Proc& dst, Request req, Proc::UnexpectedMsg msg);
  static bool matches(const RequestState& r, const Proc::UnexpectedMsg& m);
  void completeRequest(Proc& owner, Request req, int srcRank, int tag,
                       std::size_t bytes);

  // ---- Request pool access (Env) -------------------------------------------
  /// Reporting a send done hands its buffer back to the sender, so an
  /// eager payload still read from that buffer is snapshotted first.
  [[nodiscard]] bool requestDone(Request r) {
    RequestState* s = requests_.find(r);
    if (s == nullptr) return true;  // stale handle = completed and reclaimed
    if (s->done && s->eager.valid()) snapshotEager(*s);
    return s->done;
  }
  /// Returns the slot of a done request to the pool (stale handles are a
  /// no-op) and hands back its Status — read before the slot is recycled.
  Status finishRequest(Request r) {
    RequestState* s = requests_.find(r);
    if (s == nullptr) return Status{};
    if (s->eager.valid()) snapshotEager(*s);
    const Status st = s->status;
    requests_.release(r, procs_[static_cast<std::size_t>(s->ownerProc)]
                             .ownedRequests);
    return st;
  }
  [[nodiscard]] Request newRequest(Proc& owner) {
    return requests_.allocate(owner.idx, owner.ownedRequests);
  }

  // ---- Process management ---------------------------------------------------
  Job& startJob(const std::string& appName, const std::vector<int>& nodes,
                int procsPerNode, int threadsPerProc, sim::SimTime startDelay,
                Comm parent, int allocationId);
  /// Reclaims everything a rank pinned and, for its job's last rank,
  /// releases the allocation and fires the drain hook.  Runs once per
  /// rank: from its body's guard, or from killJob if the body never ran.
  void drainProc(Proc& self);
  /// Implements the root side of MPI_Comm_spawn (called from Env).
  Comm spawnJob(Proc& root, Comm over, const std::string& appName, int nprocs,
                const SpawnOptions& opts);

  hw::Machine& machine_;
  extoll::Fabric& fabric_;
  rm::ResourceManager& rm_;
  AppRegistry& registry_;
  ProtocolParams params_;

  /// Per-rank state, indexed by procIdx.  deque: emplace_back never moves
  /// an element, so the Proc references that closures and matching queues
  /// hold stay valid across growth.
  std::deque<Proc> procs_;
  /// Request slots for every rank's in-flight operations (see Request in
  /// types.hpp for the handle semantics).
  RequestPool requests_;
  /// Every eager payload between its send and its consumption.
  EagerPool eager_;
  std::deque<Job> jobs_;  // deque: stable references across growth
  std::deque<CommInfo> comms_;  // deque: stable references across growth
  // Comm interning happens a handful of times per job (launch/split).
  std::map<std::uint64_t, Comm> internedComms_;
  /// Reliable-transport channels keyed by (srcIdx << 32) | dstIdx.  The
  /// map is node-based and channels are never erased, so a channel
  /// reference stays valid while reentrant delivery inserts new channels.
  std::unordered_map<std::uint64_t, TransportChannel> channels_;
  std::function<void(int)> drainHook_;
  int unreachablePeers_ = 0;
  mc::Chooser* chooser_ = nullptr;
};

}  // namespace cbsim::pmpi
