#include "pmpi/runtime.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "obs/tracer.hpp"
#include "pmpi/env.hpp"

namespace cbsim::pmpi {

using sim::SimTime;

namespace {

/// Message-lifecycle instant on a rank's timeline row (no-op without sproc,
/// which only happens for procs torn down mid-flight).
void traceMsgEvent(sim::Engine& eng, obs::Tracer& tr, const Proc& p,
                   const char* name, std::initializer_list<obs::TraceArg> args) {
  if (p.sproc == nullptr) return;
  tr.instant(obs::kGroupRanks, eng.processRow(*p.sproc), name, "pmpi",
             eng.now(), args);
}

/// Tracks one of the matching queues' depth as gauge + counter track.
void traceQueueDepth(sim::Engine& eng, obs::Tracer& tr, const char* gauge,
                     double delta) {
  const double depth = tr.metrics().gaugeAdd(gauge, delta);
  tr.counter(gauge, eng.now(), depth);
}

}  // namespace

Runtime::Runtime(hw::Machine& machine, extoll::Fabric& fabric,
                 rm::ResourceManager& rm, AppRegistry& registry,
                 ProtocolParams params)
    : machine_(machine),
      fabric_(fabric),
      rm_(rm),
      registry_(registry),
      params_(params) {}

Runtime::~Runtime() { engine().shutdown(); }

// ---- Communicators -----------------------------------------------------------

const Runtime::CommInfo& Runtime::commInfo(Comm c) const {
  if (!c.valid()) throw std::invalid_argument("invalid communicator");
  return comms_.at(static_cast<std::size_t>(c.id()));
}

void Runtime::GroupIndex::build(const std::vector<int>& members) {
  base = -1;
  sorted.clear();
  if (members.empty()) return;
  bool contiguous = true;
  for (std::size_t i = 1; i < members.size(); ++i) {
    if (members[i] != members[i - 1] + 1) {
      contiguous = false;
      break;
    }
  }
  if (contiguous) {
    base = members.front();
    return;
  }
  sorted.reserve(members.size());
  for (std::size_t i = 0; i < members.size(); ++i) {
    sorted.emplace_back(members[i], static_cast<int>(i));
  }
  std::sort(sorted.begin(), sorted.end());
}

int Runtime::GroupIndex::rankOf(int procIdx, std::size_t size) const {
  if (base >= 0) {
    const int r = procIdx - base;
    return (r >= 0 && r < static_cast<int>(size)) ? r : -1;
  }
  const auto it = std::lower_bound(
      sorted.begin(), sorted.end(), std::make_pair(procIdx, -1));
  if (it == sorted.end() || it->first != procIdx) return -1;
  return it->second;
}

int Runtime::rankIn(Comm c, int procIdx) const {
  const CommInfo& info = commInfo(c);
  const int a = info.rankInA(procIdx);
  if (a >= 0) return a;
  return info.rankInB(procIdx);
}

int Runtime::localSize(Comm c, int procIdx) const {
  const CommInfo& info = commInfo(c);
  if (info.rankInB(procIdx) >= 0) return static_cast<int>(info.groupB.size());
  return static_cast<int>(info.groupA.size());
}

int Runtime::remoteSize(Comm c, int procIdx) const {
  const CommInfo& info = commInfo(c);
  if (!info.inter) return static_cast<int>(info.groupA.size());
  if (info.rankInB(procIdx) >= 0) return static_cast<int>(info.groupA.size());
  return static_cast<int>(info.groupB.size());
}

int Runtime::sendTarget(Comm c, int srcProcIdx, int dstRank) const {
  const CommInfo& info = commInfo(c);
  if (!info.inter) {
    return info.groupA.at(static_cast<std::size_t>(dstRank));
  }
  // Intercomm: the destination rank indexes the *other* group.
  const auto& remote =
      info.rankInA(srcProcIdx) >= 0 ? info.groupB : info.groupA;
  return remote.at(static_cast<std::size_t>(dstRank));
}

Comm Runtime::makeIntracomm(std::vector<int> members) {
  CommInfo info;
  info.id = static_cast<int>(comms_.size());
  info.inter = false;
  info.groupA = std::move(members);
  info.indexA.build(info.groupA);
  comms_.push_back(std::move(info));
  return Comm(comms_.back().id);
}

Comm Runtime::makeIntercomm(std::vector<int> groupA, std::vector<int> groupB) {
  CommInfo info;
  info.id = static_cast<int>(comms_.size());
  info.inter = true;
  info.groupA = std::move(groupA);
  info.groupB = std::move(groupB);
  info.indexA.build(info.groupA);
  info.indexB.build(info.groupB);
  comms_.push_back(std::move(info));
  return Comm(comms_.back().id);
}

Comm Runtime::internComm(std::uint64_t key, const std::vector<int>& members) {
  const auto it = internedComms_.find(key);
  if (it != internedComms_.end()) return it->second;
  const Comm c = makeIntracomm(members);
  internedComms_.emplace(key, c);
  return c;
}

// ---- Message engine -----------------------------------------------------------

bool Runtime::matches(const RequestState& r, const Proc::UnexpectedMsg& m) {
  return r.commId == m.commId &&
         (r.srcFilter == AnySource || r.srcFilter == m.srcRank) &&
         (r.tagFilter == AnyTag || r.tagFilter == m.tag);
}

Request Runtime::postSend(Proc& src, Comm c, int dstRank, int tag,
                          ConstBytes data, SendMode mode) {
  const int dstIdx = sendTarget(c, src.idx, dstRank);
  const int srcRank = rankIn(c, src.idx);
  if (srcRank < 0) throw std::logic_error("sender not a member of comm");

  const Request req = newRequest(src);
  RequestState& reqState = requests_.get(req);
  reqState.commId = c.id();

  const bool rendezvous =
      mode == SendMode::Synchronous || data.size() > params_.eagerThreshold;

  Proc::UnexpectedMsg msg;
  msg.commId = c.id();
  msg.srcRank = srcRank;
  msg.tag = tag;
  msg.bytes = data.size();
  msg.srcProcIdx = src.idx;
  if (obs::Tracer* tr = engine().tracer()) {
    tr->metrics().add(rendezvous ? "pmpi.sends.rendezvous"
                                 : "pmpi.sends.eager");
    traceMsgEvent(engine(), *tr, src, "send.post",
                  {{"dst", static_cast<double>(dstRank)},
                   {"tag", static_cast<double>(tag)},
                   {"bytes", static_cast<double>(data.size())},
                   {"rdv", rendezvous ? 1.0 : 0.0}});
  }
  if (rendezvous) {
    // RTS carries no payload; the sender's buffer is pinned in the request
    // until the RDMA transfer completes.
    reqState.sendBuf = data;
    msg.rendezvous = true;
    msg.sendReq = req;
    transportSend(src.idx, dstIdx, params_.ctrlMsgBytes,
                  [this, dstIdx, msg]() mutable {
                    deliverRts(dstIdx, std::move(msg));
                  });
  } else {
    // Eager: the send completes at once and the message is a 48-byte
    // ticket.  Its payload stays in the sender's buffer — MPI forbids
    // touching it until the send is reported done — and is copied into
    // its slot's snapshot only if the sender gets it back first
    // (snapshotEager).  Nobody reads bytes sent to a rank that exited.
    Proc& dst = procs_[static_cast<std::size_t>(dstIdx)];
    if (procLive(dst)) {
      msg.payload = eager_.allocate(dstIdx, dst.ownedEager);
      eager_.get(msg.payload).src = data;
      reqState.eager = msg.payload;
    }
    reqState.done = true;
    transportSend(src.idx, dstIdx,
                  static_cast<double>(data.size()) + params_.headerBytes,
                  [this, dstIdx, msg]() mutable {
                    deliverEager(dstIdx, std::move(msg));
                  });
  }
  return req;
}

Request Runtime::postRecv(Proc& dst, Comm c, int srcRank, int tag, Bytes buf) {
  const Request req = newRequest(dst);
  RequestState& reqState = requests_.get(req);
  reqState.isRecv = true;
  reqState.commId = c.id();
  reqState.srcFilter = srcRank;
  reqState.tagFilter = tag;
  reqState.recvBuf = buf;

  const auto pred = [&](const Proc::UnexpectedMsg& m) {
    return matches(reqState, m);
  };
  std::optional<Proc::UnexpectedMsg> hit;
  if (chooser_ == nullptr) {
    hit = dst.unexpected.extractFirst(pred);
  } else {
    // Choice point: enumerate the per-source FIFO heads among the eligible
    // messages.  MPI's non-overtaking rule fixes the order *within* each
    // source, so the only legitimate freedom is which source a wildcard
    // receive drains first; alternative 0 is the overall-first eligible
    // message, i.e. exactly what extractFirst would have taken.
    std::vector<std::size_t> slots;
    std::vector<std::uint64_t> keys;
    dst.unexpected.forEachMatch(
        pred, [&](std::size_t slot, const Proc::UnexpectedMsg& m) {
          const auto key = static_cast<std::uint64_t>(m.srcProcIdx);
          if (std::find(keys.begin(), keys.end(), key) != keys.end()) return;
          slots.push_back(slot);
          keys.push_back(key);
        });
    if (!slots.empty()) {
      std::size_t pick = 0;
      if (slots.size() > 1) {
        pick = static_cast<std::size_t>(chooser_->choose(
            {mc::Site::PmpiMatch, static_cast<std::uint64_t>(dst.idx), keys}));
      }
      hit = dst.unexpected.extractAt(slots[pick]);
    }
  }
  if (hit) {
    Proc::UnexpectedMsg msg = std::move(*hit);
    if (obs::Tracer* tr = engine().tracer()) {
      traceQueueDepth(engine(), *tr, "pmpi.unexpected.depth", -1.0);
      traceMsgEvent(engine(), *tr, dst, "msg.match",
                    {{"src", static_cast<double>(msg.srcRank)},
                     {"tag", static_cast<double>(msg.tag)},
                     {"bytes", static_cast<double>(msg.bytes)}});
    }
    if (msg.rendezvous) {
      startRendezvousTransfer(dst, req, std::move(msg));
    } else {
      completeEagerRecv(dst, req, std::move(msg));
    }
    return req;
  }
  dst.posted.push(req);
  if (obs::Tracer* tr = engine().tracer()) {
    traceQueueDepth(engine(), *tr, "pmpi.posted.depth", 1.0);
  }
  return req;
}

bool Runtime::tryMatchArrival(Proc& dst, Proc::UnexpectedMsg& msg) {
  std::optional<Request> hit = dst.posted.extractFirst(
      [&](const Request& r) { return matches(requests_.get(r), msg); });
  if (!hit) return false;
  const Request req = *hit;
  if (obs::Tracer* tr = engine().tracer()) {
    traceQueueDepth(engine(), *tr, "pmpi.posted.depth", -1.0);
    traceMsgEvent(engine(), *tr, dst, "msg.match",
                  {{"src", static_cast<double>(msg.srcRank)},
                   {"tag", static_cast<double>(msg.tag)},
                   {"bytes", static_cast<double>(msg.bytes)}});
  }
  if (msg.rendezvous) {
    startRendezvousTransfer(dst, req, std::move(msg));
  } else {
    completeEagerRecv(dst, req, std::move(msg));
  }
  return true;
}

void Runtime::deliverEager(int dstProcIdx, Proc::UnexpectedMsg msg) {
  Proc& dst = procs_[static_cast<std::size_t>(dstProcIdx)];
  if (!tryMatchArrival(dst, msg)) {
    // The rank exited: nothing will ever consume this payload, so don't
    // let the late arrival keep its slot or snapshot.
    if (!procLive(dst)) dropEager(msg.payload);
    if (obs::Tracer* tr = engine().tracer()) {
      traceQueueDepth(engine(), *tr, "pmpi.unexpected.depth", 1.0);
      traceMsgEvent(engine(), *tr, dst, "msg.unexpected",
                    {{"src", static_cast<double>(msg.srcRank)},
                     {"tag", static_cast<double>(msg.tag)}});
    }
    dst.unexpected.push(msg);
  }
}

void Runtime::deliverRts(int dstProcIdx, Proc::UnexpectedMsg msg) {
  Proc& dst = procs_[static_cast<std::size_t>(dstProcIdx)];
  if (!tryMatchArrival(dst, msg)) {
    if (obs::Tracer* tr = engine().tracer()) {
      traceQueueDepth(engine(), *tr, "pmpi.unexpected.depth", 1.0);
      traceMsgEvent(engine(), *tr, dst, "msg.unexpected",
                    {{"src", static_cast<double>(msg.srcRank)},
                     {"tag", static_cast<double>(msg.tag)}});
    }
    dst.unexpected.push(msg);
  }
}

void Runtime::completeEagerRecv(Proc& dst, Request req, Proc::UnexpectedMsg msg) {
  // Receiver-side protocol processing happens after the match.  The closure
  // re-resolves both handles at fire time: a 48-byte msg plus a request
  // ticket keeps it inside the event's inline buffer.
  const hw::Node& node = machine_.node(dst.nodeId);
  engine().schedule(node.mpiSwOverhead, [this, req, msg]() {
    RequestState* rs = requests_.find(req);
    if (rs == nullptr) return;  // receiver drained; its payloads went too
    Proc& owner = procs_[static_cast<std::size_t>(rs->ownerProc)];
    // The rank may have been cancelled (failure injection) between the
    // match and this completion; its receive buffer lives on the unwound
    // stack, so the copy must not happen.
    if (!procLive(owner)) return;
    if (msg.bytes > rs->recvBuf.size()) {
      throw std::runtime_error("pmpi: eager message truncates receive buffer");
    }
    consumeEager(msg, rs->recvBuf);
    completeRequest(owner, req, msg.srcRank, msg.tag, msg.bytes);
  });
}

void Runtime::consumeEager(const Proc::UnexpectedMsg& msg, Bytes out) {
  EagerSlot* e = eager_.find(msg.payload);
  // Every payload is consumed at most once, so a stale handle means the
  // transport handed one frame over twice (only brokenDedupForTest does):
  // its bytes went to the first receive, and a recycled slot is not read.
  if (e == nullptr) return;
  if (e->orphaned) {
    dropEager(msg.payload);
    const Proc& src = procs_[static_cast<std::size_t>(msg.srcProcIdx)];
    throw std::runtime_error(
        "pmpi: rank " + std::to_string(src.rank) + " of job " +
        std::to_string(src.jobId) + " exited with an unfinished isend (tag " +
        std::to_string(msg.tag) + ", " + std::to_string(msg.bytes) +
        " bytes) still in flight; its send buffer is gone");
  }
  // Unless snapshotted, a same-engine cross-rank read, as in the
  // rendezvous transfer: the sender is parked, and its buffer is valid
  // until its send is reported done (snapshotEager runs before that).
  if (!e->src.empty()) std::memcpy(out.data(), e->src.data(), e->src.size());
  dropEager(msg.payload);
}

void Runtime::dropEager(EagerRef h) {
  EagerSlot* e = eager_.find(h);
  if (e == nullptr) return;
  Proc& dst = procs_[static_cast<std::size_t>(e->ownerProc)];
  dst.snapshotBytes -= e->snapshot.size();
  eager_.release(h, dst.ownedEager);
}

void Runtime::snapshotEager(RequestState& send) {
  EagerSlot* e = eager_.find(send.eager);
  send.eager = EagerRef{};
  if (e == nullptr) return;
  e->snapshot.assign(e->src.begin(), e->src.end());
  e->src = e->snapshot;
  Proc& dst = procs_[static_cast<std::size_t>(e->ownerProc)];
  dst.snapshotBytes += e->snapshot.size();
  dst.snapshotPeakBytes = std::max(dst.snapshotPeakBytes, dst.snapshotBytes);
}

void Runtime::startRendezvousTransfer(Proc& dst, Request req,
                                      Proc::UnexpectedMsg msg) {
  if (msg.bytes > requests_.get(req).recvBuf.size()) {
    throw std::runtime_error("pmpi: rendezvous message truncates receive buffer");
  }
  const hw::Node& dstNode = machine_.node(dst.nodeId);
  if (obs::Tracer* tr = engine().tracer()) {
    traceMsgEvent(engine(), *tr, dst, "rdv.cts",
                  {{"src", static_cast<double>(msg.srcRank)},
                   {"bytes", static_cast<double>(msg.bytes)}});
  }

  // Receiver processes the RTS, sends the CTS; on CTS arrival the payload
  // moves as one RDMA transfer straight into the receive buffer (no
  // further endpoint software on the payload path).
  const int dstIdx = dst.idx;
  const int srcIdx = msg.srcProcIdx;
  engine().schedule(dstNode.mpiSwOverhead, [this, dstIdx, req, srcIdx, msg]() {
    transportSend(dstIdx, srcIdx, params_.ctrlMsgBytes,
                  [this, dstIdx, req, srcIdx, msg]() {
      transportSend(srcIdx, dstIdx,
                    static_cast<double>(msg.bytes) + params_.headerBytes,
                    [this, dstIdx, req, msg]() {
                      Proc& dst = procs_[static_cast<std::size_t>(dstIdx)];
                      Proc& src =
                          procs_[static_cast<std::size_t>(msg.srcProcIdx)];
                      // Both stacks must still exist: the source buffer is
                      // pinned on the sender, the destination buffer on the
                      // receiver.  A cancelled rank invalidates its side —
                      // and its drain may already have recycled either
                      // request slot, which the stale-handle check catches.
                      if (!procLive(dst) || !procLive(src)) return;
                      RequestState* rr = requests_.find(req);
                      RequestState* ss = requests_.find(msg.sendReq);
                      if (rr == nullptr || ss == nullptr) return;
                      std::memcpy(rr->recvBuf.data(), ss->sendBuf.data(),
                                  msg.bytes);
                      completeRequest(dst, req, msg.srcRank, msg.tag,
                                      msg.bytes);
                      completeRequest(src, msg.sendReq, msg.srcRank, msg.tag,
                                      msg.bytes);
                    });
    });
  });
}

void Runtime::completeRequest(Proc& owner, Request req, int srcRank, int tag,
                              std::size_t bytes) {
  RequestState* s = requests_.find(req);
  if (s == nullptr) return;  // drained concurrently; nobody is waiting
  s->done = true;
  s->status.source = srcRank;
  s->status.tag = tag;
  s->status.bytes = bytes;
  if (obs::Tracer* tr = engine().tracer()) {
    traceMsgEvent(engine(), *tr, owner, "msg.complete",
                  {{"src", static_cast<double>(srcRank)},
                   {"tag", static_cast<double>(tag)},
                   {"bytes", static_cast<double>(bytes)}});
  }
  if (owner.sproc != nullptr) engine().wake(*owner.sproc);
}

// ---- Reliable transport ---------------------------------------------------------

bool Runtime::procLive(const Proc& p) const {
  return p.sproc != nullptr && p.sproc->live();
}

Runtime::TransportChannel& Runtime::channel(int srcIdx, int dstIdx) {
  const std::uint64_t key = (static_cast<std::uint64_t>(
                                 static_cast<std::uint32_t>(srcIdx))
                             << 32) |
                            static_cast<std::uint32_t>(dstIdx);
  return channels_[key];
}

void Runtime::transportSend(int srcIdx, int dstIdx, double bytes,
                            std::function<void()> deliver) {
  if (!params_.reliable) {
    const int srcEp = machine_.endpointOfNode(proc(srcIdx).nodeId);
    const int dstEp = machine_.endpointOfNode(proc(dstIdx).nodeId);
    fabric_.send(srcEp, dstEp, bytes, std::move(deliver));
    return;
  }
  TransportChannel& ch = channel(srcIdx, dstIdx);
  const std::uint32_t seq = ch.nextSendSeq++;
  TransportChannel::Inflight inf;
  inf.bytes = bytes;
  inf.deliver = std::move(deliver);
  // First-shot RTO: configured base plus a generous serialization estimate
  // so big rendezvous payloads under contention don't time out spuriously.
  const int srcEp = machine_.endpointOfNode(proc(srcIdx).nodeId);
  const int dstEp = machine_.endpointOfNode(proc(dstIdx).nodeId);
  inf.rto = params_.retransmitTimeout +
            4 * sim::SimTime::seconds(
                    bytes / (fabric_.bottleneckBwGBs(srcEp, dstEp) * 1e9));
  ch.inflight.emplace(seq, std::move(inf));
  transmitFrame(srcIdx, dstIdx, seq);
}

void Runtime::transmitFrame(int srcIdx, int dstIdx, std::uint32_t seq) {
  TransportChannel& ch = channel(srcIdx, dstIdx);
  const auto it = ch.inflight.find(seq);
  if (it == ch.inflight.end()) return;  // acked in the meantime
  const TransportChannel::Inflight& inf = it->second;
  const int srcEp = machine_.endpointOfNode(proc(srcIdx).nodeId);
  const int dstEp = machine_.endpointOfNode(proc(dstIdx).nodeId);
  fabric_.send(srcEp, dstEp, inf.bytes, [this, srcIdx, dstIdx, seq] {
    onFrameArrive(srcIdx, dstIdx, seq);
  });
  engine().schedule(inf.rto, [this, srcIdx, dstIdx, seq] {
    onFrameTimeout(srcIdx, dstIdx, seq);
  });
}

void Runtime::onFrameArrive(int srcIdx, int dstIdx, std::uint32_t seq) {
  TransportChannel& ch = channel(srcIdx, dstIdx);
  // Ack every arrival, duplicates included — the ack for the first copy
  // may itself have been lost.  Acks ride the fabric (and its faults).
  const int srcEp = machine_.endpointOfNode(proc(srcIdx).nodeId);
  const int dstEp = machine_.endpointOfNode(proc(dstIdx).nodeId);
  fabric_.send(dstEp, srcEp, params_.ackBytes, [this, srcIdx, dstIdx, seq] {
    onFrameAck(srcIdx, dstIdx, seq);
  });
  if (params_.brokenDedupForTest) {
    // TEST-ONLY seeded defect (mc acceptance criterion): the dedup and
    // reorder guards are bypassed and every arrival — spurious retransmits
    // and gap-jumping later frames alike — goes straight to matching.  The
    // exploration corpus must flag this as an exactly-once / in-order
    // violation; never set outside the model checker's own tests.
    const auto bit = ch.inflight.find(seq);
    if (bit != ch.inflight.end() && bit->second.deliver) {
      const std::function<void()> dup = bit->second.deliver;  // stays armed
      dup();
    }
    return;
  }
  if (seq < ch.nextDeliverSeq || ch.reorder.contains(seq)) {
    // Spurious retransmit of a frame already handed over (or queued).
    if (obs::Tracer* tr = engine().tracer()) {
      tr->metrics().add("pmpi.transport.duplicates");
    }
    return;
  }
  const auto it = ch.inflight.find(seq);
  if (it == ch.inflight.end() || !it->second.deliver) return;  // defensive
  ch.reorder.emplace(seq, std::move(it->second.deliver));
  // Hand frames to the matching engine strictly in send order: a
  // retransmitted earlier message must not be overtaken by a later one
  // (MPI non-overtaking), so later arrivals wait in the reorder buffer.
  // `ch` stays a valid reference across fn(), which may create channels:
  // unordered_map insertion never invalidates references to elements.
  // The window only holds seqs >= nextDeliverSeq, so its first entry is
  // the only candidate.
  while (!ch.reorder.empty() &&
         ch.reorder.begin()->first == ch.nextDeliverSeq) {
    std::function<void()> fn = std::move(ch.reorder.begin()->second);
    ch.reorder.erase(ch.reorder.begin());
    ++ch.nextDeliverSeq;
    fn();
  }
}

void Runtime::onFrameAck(int srcIdx, int dstIdx, std::uint32_t seq) {
  channel(srcIdx, dstIdx).inflight.erase(seq);
}

void Runtime::onFrameTimeout(int srcIdx, int dstIdx, std::uint32_t seq) {
  TransportChannel& ch = channel(srcIdx, dstIdx);
  const auto it = ch.inflight.find(seq);
  if (it == ch.inflight.end()) return;  // acked
  // Frames between dead procs (whole-job kill) are abandoned quietly; the
  // supervisor handles the job, not the transport.
  if (!procLive(proc(srcIdx)) && !procLive(proc(dstIdx))) {
    ch.inflight.erase(seq);
    return;
  }
  TransportChannel::Inflight& inf = it->second;
  if (inf.tries >= params_.retransmitBudget) {
    onPeerUnreachable(srcIdx, dstIdx, seq);
    return;
  }
  ++inf.tries;
  const sim::SimTime grown = sim::SimTime::seconds(
      inf.rto.toSeconds() * params_.retransmitBackoff);
  inf.rto = std::min(grown, std::max(params_.retransmitCap, inf.rto));
  fabric_.noteRetransmit();
  if (obs::Tracer* tr = engine().tracer()) {
    tr->metrics().add("pmpi.transport.retransmits");
  }
  if (chooser_ != nullptr) {
    // Choice point: a retransmission may go out immediately (slot 0, the
    // historical behavior) or after a one-microsecond jitter (slot 1),
    // which lets it reorder against other traffic queued at this instant.
    static constexpr std::uint64_t kSlots[2] = {0, 1};
    const std::uint64_t locus =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(srcIdx)) << 32) |
        static_cast<std::uint32_t>(dstIdx);
    if (chooser_->choose({mc::Site::Retransmit, locus, kSlots}) == 1) {
      engine().schedule(SimTime::us(1), [this, srcIdx, dstIdx, seq] {
        transmitFrame(srcIdx, dstIdx, seq);
      });
      return;
    }
  }
  transmitFrame(srcIdx, dstIdx, seq);
}

void Runtime::onPeerUnreachable(int srcIdx, int dstIdx, std::uint32_t seq) {
  channel(srcIdx, dstIdx).inflight.erase(seq);
  ++unreachablePeers_;
  if (obs::Tracer* tr = engine().tracer()) {
    tr->metrics().add("pmpi.transport.unreachable");
  }
  // Surface as a rank failure, not a hang: tear down the involved job(s)
  // exactly like a node loss, so checkpoint/restart supervision takes over.
  const int srcJob = proc(srcIdx).jobId;
  if (srcJob >= 0 && !jobDone(srcJob)) killJob(srcJob);
  const int dstJob = proc(dstIdx).jobId;
  if (dstJob >= 0 && dstJob != srcJob && !jobDone(dstJob)) killJob(dstJob);
}

// ---- Process management ---------------------------------------------------------

Job& Runtime::launch(const JobSpec& spec) {
  return startJob(spec.appName, spec.nodes, spec.procsPerNode,
                  spec.threadsPerProc, SimTime::zero(), Comm{}, -1);
}

Job& Runtime::launch(const std::string& appName, hw::NodeKind kind,
                     int nodeCount, int procsPerNode, int threadsPerProc) {
  auto alloc = rm_.allocate(kind, nodeCount);
  if (!alloc) {
    throw std::runtime_error("pmpi: not enough free " +
                             std::string(hw::toString(kind)) + " nodes");
  }
  return startJob(appName, alloc->nodes, procsPerNode, threadsPerProc,
                  SimTime::zero(), Comm{}, alloc->id);
}

Job& Runtime::startJob(const std::string& appName,
                       const std::vector<int>& nodes, int procsPerNode,
                       int threadsPerProc, SimTime startDelay, Comm parent,
                       int allocationId) {
  if (nodes.empty() || procsPerNode < 1) {
    throw std::invalid_argument("pmpi: empty job");
  }
  const RankMain& main = registry_.lookup(appName);

  jobs_.emplace_back();
  Job& job = jobs_.back();
  job.id = static_cast<int>(jobs_.size()) - 1;
  job.appName = appName;
  job.allocationId = allocationId;

  const int nprocs = static_cast<int>(nodes.size()) * procsPerNode;
  std::vector<int> members;
  for (int r = 0; r < nprocs; ++r) {
    Proc& proc = procs_.emplace_back();
    proc.idx = static_cast<int>(procs_.size()) - 1;
    proc.jobId = job.id;
    proc.rank = r;
    proc.nodeId = nodes.at(static_cast<std::size_t>(r / procsPerNode));
    const int hwThreads = machine_.node(proc.nodeId).cpu.threads();
    proc.threads = threadsPerProc > 0 ? threadsPerProc
                                      : std::max(1, hwThreads / procsPerNode);
    proc.parent = parent;
    members.push_back(proc.idx);
  }
  job.procIdx = members;
  job.liveProcs = nprocs;
  job.world = makeIntracomm(members);

  for (const int pi : members) {
    Proc& p = procs_[static_cast<std::size_t>(pi)];
    p.world = job.world;
    const std::string name = appName + ":j" + std::to_string(job.id) + ":r" +
                             std::to_string(p.rank);
    p.sproc = &engine().spawnAfter(
        startDelay, name, [this, pi, &main](sim::Context& ctx) {
          Proc& self = procs_[static_cast<std::size_t>(pi)];
          self.started = true;
          Env env(*this, self, ctx);
          struct Drain {  // runs also when the rank throws or is cancelled
            Runtime* rt;
            Proc* self;
            ~Drain() { rt->drainProc(*self); }
          } drain{this, &self};
          main(env);
        });
  }
  return job;
}

Comm Runtime::spawnJob(Proc& root, Comm over, const std::string& appName,
                       int nprocs, const SpawnOptions& opts) {
  const CommInfo& overInfo = commInfo(over);
  if (overInfo.inter) {
    throw std::invalid_argument("pmpi: spawn over an intercommunicator");
  }
  const int ppn = std::max(1, opts.procsPerNode);
  const int nNodes = (nprocs + ppn - 1) / ppn;

  std::optional<rm::Allocation> alloc;
  if (!opts.nodes.empty()) {
    alloc = rm_.allocateNodes(opts.nodes);
  } else {
    alloc = rm_.allocate(opts.partition, nNodes);
  }
  if (!alloc) {
    throw std::runtime_error("pmpi: spawn failed, no free nodes in partition " +
                             std::string(hw::toString(opts.partition)));
  }

  const SimTime cost = params_.spawnBase + nprocs * params_.spawnPerProc;
  // Children come up once remote-exec + wire-up completed.
  Job& child = startJob(appName, alloc->nodes, ppn, opts.threadsPerProc, cost,
                        Comm{}, alloc->id);
  const Comm inter = makeIntercomm(overInfo.groupA, child.procIdx);
  for (const int pi : child.procIdx) {
    procs_[static_cast<std::size_t>(pi)].parent = inter;
  }
  (void)root;
  return inter;
}

void Runtime::drainProc(Proc& self) {
  // Detach communication state: in-flight messages must never match a
  // receive whose buffer lived on this (now unwound) stack — relevant when
  // failure injection cancels ranks.  Reclaim everything the rank pinned:
  // queued messages, eager payloads addressed to it (with their
  // snapshots), and every request slot it still owned (late completions
  // resolve those handles as stale and bail out).
  self.posted.clear();
  self.unexpected.clear();
  eager_.releaseAll(self.ownedEager);
  self.snapshotBytes = 0;
  // An eager send this rank never completed still points into its (now
  // unwound) frames: no receive may read it.
  requests_.forEachOwned(self.ownedRequests, [this](RequestState& s) {
    EagerSlot* e = eager_.find(s.eager);
    if (e != nullptr) e->orphaned = true;
  });
  requests_.releaseAll(self.ownedRequests);
  obs::Tracer* tr = engine().tracer();
  if (tr != nullptr && self.sproc != nullptr) {
    // Final per-rank time split for the metrics table.  The run label
    // keeps same-named ranks of separate runs apart.
    const std::string key = tr->runLabel() + "rank[" + self.sproc->name() + "]";
    obs::Metrics& m = tr->metrics();
    m.gaugeSet(key + ".compute_sec", self.computeSec);
    m.gaugeSet(key + ".comm_sec", self.commSec);
    m.gaugeSet(key + ".io_sec", self.ioSec);
  }
  Job& job = jobs_[static_cast<std::size_t>(self.jobId)];
  if (--job.liveProcs == 0) {
    if (job.allocationId >= 0) rm_.release(job.allocationId);
    if (drainHook_) {
      // Deferred to a zero-delay event: the hook may relaunch jobs, which
      // must not run while this rank's stack is still unwinding.
      engine().schedule(SimTime::zero(), [this, id = job.id] {
        if (drainHook_) drainHook_(id);
      });
    }
  }
}

void Runtime::killJob(int jobId) {
  for (const int pi : job(jobId).procIdx) {
    Proc& p = procs_[static_cast<std::size_t>(pi)];
    if (!procLive(p)) continue;
    // The victim's buffers die with its stack, but what it already sent
    // eagerly was sent: receivers still get those bytes.
    requests_.forEachOwned(p.ownedRequests, [this](RequestState& s) {
      if (s.eager.valid()) snapshotEager(s);
    });
    engine().cancel(*p.sproc);
    // A rank cancelled before its first resume never runs its body, so
    // its drain guard never fires: drain it here, and detach its process
    // so the rank reads as exited from now on.
    if (!p.started) {
      drainProc(p);
      p.sproc = nullptr;
    }
  }
}

Runtime::JobTimes Runtime::jobTimes(int id) const {
  JobTimes t;
  for (const int pi : job(id).procIdx) {
    const Proc& p = proc(pi);
    t.computeSec += p.computeSec;
    t.commSec += p.commSec;
    t.ioSec += p.ioSec;
  }
  return t;
}

// ---- Memory telemetry -----------------------------------------------------------

Runtime::MemoryStats Runtime::memoryStats() const {
  MemoryStats m;
  m.procSlabBytes = procs_.size() * sizeof(Proc);
  m.requestSlots = requests_.slotCount();
  m.requestPoolBytes = requests_.capacityBytes();
  for (const Proc& p : procs_) {
    m.payloadArenaBytes += p.snapshotBytes;
    m.payloadArenaPeakBytes += p.snapshotPeakBytes;
    m.matchQueueBytes += p.unexpected.capacityBytes() + p.posted.capacityBytes();
    m.matchQueuePeakEntries += p.unexpected.peakSize() + p.posted.peakSize();
  }
  m.channelCount = channels_.size();
  m.channelBytes = channels_.size() * sizeof(decltype(channels_)::value_type);
  return m;
}

}  // namespace cbsim::pmpi
