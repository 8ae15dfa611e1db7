// cbsim_perfbench: runs ONE repetition of a benchmark workload and reports
// it on stdout as JSON lines, one line per finished operation, so that a
// crash loses at most the operation in flight.  perfbench/run.py starts one
// such process per repetition, resumes after the next operation when a
// process dies, checks every output against perfbench/pins.json and turns
// the lines into metrics.  See perfbench/README.md for the workloads.
//
//   cbsim_perfbench --workload xpic-fig8|halo-16k|recovery-fuzz
//                   [--size full|tiny] [--seed N] [--trace 0|1] [--from-op K]
//
// Run from the repository root (the recovery workload reads examples/).
//
// Lines: {"kind":"plan"} (operation ids in run order + workload key),
// {"kind":"setup"}, {"kind":"op"} per operation, {"kind":"rep"} at the end.
// Every line after the plan carries the counter deltas since the previous
// line and, with --trace 1, the spans closed since then.
//
// Layer attribution comes from two places, both in this file: spans opened
// around this program's own calls (desc parse, campaign run, topology
// materialize, mc explorations, chaos trials, ...), and the __wrap_ probes
// below, which the linker routes sim::Engine::run and the hw::Machine /
// extoll::Fabric / pmpi::Runtime constructors (and the Runtime destructor)
// through (see CMakeLists.txt).  The probes fire wherever a world is built
// or run, including inside campaign scenarios and mc/chaos trials, and read
// the layers' own counters after each run.

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "campaign/builtin.hpp"
#include "campaign/desc.hpp"
#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "chaos/fuzz.hpp"
#include "chaos/generate.hpp"
#include "chaos/trial.hpp"
#include "desc/cache.hpp"
#include "desc/json.hpp"
#include "desc/schema.hpp"
#include "extoll/fabric.hpp"
#include "hw/machine.hpp"
#include "hw/topology.hpp"
#include "mc/choice.hpp"
#include "mc/desc.hpp"
#include "mc/scenarios.hpp"
#include "pmpi/env.hpp"
#include "pmpi/runtime.hpp"
#include "rm/resource_manager.hpp"
#include "sim/engine.hpp"

namespace {

using namespace cbsim;
using Clock = std::chrono::steady_clock;

const Clock::time_point kStart = Clock::now();

double now() {
  return std::chrono::duration<double>(Clock::now() - kStart).count();
}

std::uint64_t fnv1a(const std::string& s,
                    std::uint64_t h = 0xcbf29ce484222325ull) {
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + '"';
}

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Insertion-ordered flat JSON object of numbers and strings.
class Obj {
 public:
  Obj& n(const std::string& k, double v) { return raw(k, num(v)); }
  Obj& s(const std::string& k, const std::string& v) {
    return raw(k, quote(v));
  }
  Obj& raw(const std::string& k, const std::string& v) {
    body_ += (body_.empty() ? "" : ",") + quote(k) + ":" + v;
    return *this;
  }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }
  [[nodiscard]] const std::string& body() const { return body_; }

 private:
  std::string body_;
};

// ---- spans -----------------------------------------------------------------

struct Span {
  const char* name;
  double t0 = 0;
  double t1 = -1;  ///< -1 while open
  int parent = -1;
  int op = -1;
};

bool gTrace = false;
std::mutex gMu;  ///< guards gSpans, gCounters
std::vector<Span> gSpans;
std::size_t gSpansFlushed = 0;
thread_local std::vector<int> tStack;  ///< open span ids on this thread
thread_local int tRootParent = -1;     ///< parent for a thread's outer spans
thread_local int tOp = -1;             ///< operation the thread works on

/// RAII span; a no-op unless tracing.  Spans are kept in memory and
/// written out with the next JSON line.
class SpanScope {
 public:
  explicit SpanScope(const char* name) {
    if (!gTrace) return;
    const int parent = tStack.empty() ? tRootParent : tStack.back();
    const std::lock_guard<std::mutex> lock(gMu);
    id_ = static_cast<int>(gSpans.size());
    gSpans.push_back({name, now(), -1, parent, tOp});
    tStack.push_back(id_);
  }
  ~SpanScope() {
    if (id_ < 0) return;
    tStack.pop_back();
    const double t = now();
    const std::lock_guard<std::mutex> lock(gMu);
    gSpans[static_cast<std::size_t>(id_)].t1 = t;
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  [[nodiscard]] int id() const { return id_; }

 private:
  int id_ = -1;
};

// ---- counters --------------------------------------------------------------

/// Layer counters, reported as deltas per JSON line.  Keys ending in
/// "_max" hold maxima since the previous line instead of sums.
std::map<std::string, double> gCounters;

void count(const std::string& key, double v) {
  const std::lock_guard<std::mutex> lock(gMu);
  double& slot = gCounters[key];
  if (key.size() > 4 && key.compare(key.size() - 4, 4, "_max") == 0) {
    slot = std::max(slot, v);
  } else {
    slot += v;
  }
}

/// Counter deltas and closed spans since the previous call, as JSON
/// fields (without braces).  Open spans stay queued until they close.
std::string drain() {
  const std::lock_guard<std::mutex> lock(gMu);
  Obj c;
  for (const auto& [k, v] : gCounters) c.n(k, v);
  gCounters.clear();
  std::string out = "\"counters\":" + c.str();
  if (gTrace) {
    std::string spans;
    for (std::size_t i = gSpansFlushed; i < gSpans.size(); ++i) {
      Span& s = gSpans[i];
      if (s.t1 < 0) continue;  // open (-1) or already written (-2)
      spans += (spans.empty() ? "" : ",") + std::string("[") + quote(s.name) +
               "," + num(s.t0) + "," + num(s.t1) + "," + std::to_string(i) +
               "," + std::to_string(s.parent) + "," + std::to_string(s.op) +
               "]";
      s.t1 = -2;
    }
    out += ",\"spans\":[" + spans + "]";
    while (gSpansFlushed < gSpans.size() && gSpans[gSpansFlushed].t1 == -2) {
      ++gSpansFlushed;
    }
  }
  return out;
}

/// This process's peak resident set (VmHWM).  Not getrusage: a child's
/// ru_maxrss also covers the parent's memory at fork time, which for a
/// process started from Python would be the Python footprint.
void countPeakRss() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return;
  char line[256];
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      count("proc.vmhwm_kb_max", std::strtod(line + 6, nullptr));
      break;
    }
  }
  std::fclose(f);
}

void emit(const std::string& kind, const Obj& fields) {
  if (kind == "rep") countPeakRss();
  std::string line = "{\"kind\":" + quote(kind);
  if (!fields.body().empty()) line += "," + fields.body();
  line += "," + drain() + "}\n";
  std::fwrite(line.data(), 1, line.size(), stdout);
  std::fflush(stdout);
}

// ---- layer probes -----------------------------------------------------------

// The world being built or run on this thread.  Every cbsim world builds
// its Fabric (and Runtime) before it runs the engine and keeps them alive
// until run() returns, so the run probe reads their counters right after
// the run; the pointers are dropped after each run (and with the Runtime).
thread_local extoll::Fabric* tFabric = nullptr;
thread_local pmpi::Runtime* tRuntime = nullptr;

}  // namespace

extern "C" {
sim::RunStats __real__ZN5cbsim3sim6Engine3runEv(sim::Engine* self);
void __real__ZN5cbsim2hw7MachineC1ERNS_3sim6EngineENS0_13MachineConfigE(
    hw::Machine* self, sim::Engine& engine, hw::MachineConfig config);
void __real__ZN5cbsim6extoll6FabricC1ERNS_2hw7MachineENS0_13FabricOptionsE(
    extoll::Fabric* self, hw::Machine& machine, extoll::FabricOptions options);
void __real__ZN5cbsim4pmpi7RuntimeC1ERNS_2hw7MachineERNS_6extoll6FabricERNS_2rm15ResourceManagerERNS0_11AppRegistryENS0_14ProtocolParamsE(
    pmpi::Runtime* self, hw::Machine& machine, extoll::Fabric& fabric,
    rm::ResourceManager& rm, pmpi::AppRegistry& registry,
    pmpi::ProtocolParams params);
void __real__ZN5cbsim4pmpi7RuntimeD1Ev(pmpi::Runtime* self);

sim::RunStats __wrap__ZN5cbsim3sim6Engine3runEv(sim::Engine* self) {
  sim::RunStats st;
  const double t0 = now();
  {
    const SpanScope span("sim.run");
    st = __real__ZN5cbsim3sim6Engine3runEv(self);
  }
  count("sim.run_s", now() - t0);
  count("sim.events", static_cast<double>(st.eventsProcessed));
  count("sim.processes_spawned",
        static_cast<double>(self->spawnedProcessCount()));
  if (tFabric != nullptr) {
    const auto& fs = tFabric->stats();
    count("extoll.messages", static_cast<double>(fs.messages));
    count("extoll.bytes", fs.bytes);
    count("extoll.retransmits", static_cast<double>(fs.retransmits));
    count("extoll.drops", static_cast<double>(fs.drops));
    count("extoll.reroutes", static_cast<double>(fs.reroutes));
    count("extoll.route_hits", static_cast<double>(tFabric->routeCacheHits()));
    count("extoll.route_entries",
          static_cast<double>(tFabric->routeCacheSize()));
    count("extoll.route_cache_bytes_max",
          static_cast<double>(tFabric->routeCacheBytes()));
  }
  if (tRuntime != nullptr) {
    const auto ms = tRuntime->memoryStats();
    count("pmpi.payload_peak_bytes_max",
          static_cast<double>(ms.payloadArenaPeakBytes));
    count("pmpi.request_slots_max", static_cast<double>(ms.requestSlots));
    count("pmpi.match_peak_entries_max",
          static_cast<double>(ms.matchQueuePeakEntries));
    count("pmpi.channel_bytes_max", static_cast<double>(ms.channelBytes));
  }
  tFabric = nullptr;
  return st;
}

void __wrap__ZN5cbsim2hw7MachineC1ERNS_3sim6EngineENS0_13MachineConfigE(
    hw::Machine* self, sim::Engine& engine, hw::MachineConfig config) {
  const SpanScope span("hw.machine");
  __real__ZN5cbsim2hw7MachineC1ERNS_3sim6EngineENS0_13MachineConfigE(
      self, engine, std::move(config));
}

void __wrap__ZN5cbsim6extoll6FabricC1ERNS_2hw7MachineENS0_13FabricOptionsE(
    extoll::Fabric* self, hw::Machine& machine, extoll::FabricOptions options) {
  {
    const SpanScope span("extoll.build");
    __real__ZN5cbsim6extoll6FabricC1ERNS_2hw7MachineENS0_13FabricOptionsE(
        self, machine, std::move(options));
  }
  tFabric = self;
}

void __wrap__ZN5cbsim4pmpi7RuntimeC1ERNS_2hw7MachineERNS_6extoll6FabricERNS_2rm15ResourceManagerERNS0_11AppRegistryENS0_14ProtocolParamsE(
    pmpi::Runtime* self, hw::Machine& machine, extoll::Fabric& fabric,
    rm::ResourceManager& rm, pmpi::AppRegistry& registry,
    pmpi::ProtocolParams params) {
  {
    const SpanScope span("pmpi.build");
    __real__ZN5cbsim4pmpi7RuntimeC1ERNS_2hw7MachineERNS_6extoll6FabricERNS_2rm15ResourceManagerERNS0_11AppRegistryENS0_14ProtocolParamsE(
        self, machine, fabric, rm, registry, std::move(params));
  }
  tRuntime = self;
}

void __wrap__ZN5cbsim4pmpi7RuntimeD1Ev(pmpi::Runtime* self) {
  if (tRuntime == self) tRuntime = nullptr;
  const SpanScope span("pmpi.teardown");
  __real__ZN5cbsim4pmpi7RuntimeD1Ev(self);
}
}  // extern "C"

namespace {

struct Options {
  std::string workload;
  bool tiny = false;
  std::uint64_t seed = 1;
  int fromOp = 0;
  int workers = 2;
};

/// fig8's setup takes ~0.1 ms, so each rep times it this many times and
/// reports every sample (run.py takes the median).
constexpr int kFig8Setups = 21;

/// The description caches' hit/miss counts, reported once per process
/// just before the "rep" line.
void countCacheStats() {
  for (const auto& info : desc::constructionCacheInfo()) {
    count("desc.cache_hits", static_cast<double>(info.stats.hits));
    count("desc.cache_misses", static_cast<double>(info.stats.misses));
  }
}

/// One operation's report line.  Every 64th also samples the peak RSS, so
/// a process that crashes later has still reported most of it.
void emitOp(const std::string& id, bool ok, const std::string& err,
            const std::string& out, double tTimed0, double dt,
            const Obj& info = {}) {
  static int emitted = 0;
  if (emitted++ % 64 == 0) countPeakRss();
  emit("op", Obj()
                 .s("id", id)
                 .raw("ok", ok ? "true" : "false")
                 .s("err", err)
                 .s("out", out)
                 .n("t", now() - tTimed0)
                 .n("dt", dt)
                 .raw("info", info.str()));
}

void emitPlan(const std::vector<std::string>& ops, bool resumable,
              const Obj& key) {
  std::string ids;
  for (const auto& id : ops) ids += (ids.empty() ? "" : ",") + quote(id);
  emit("plan", Obj()
                   .raw("ops", "[" + ids + "]")
                   .raw("resumable", resumable ? "true" : "false")
                   .raw("key", key.str()));
}

std::string samples(const std::vector<double>& v) {
  std::string s;
  for (const double x : v) s += (s.empty() ? "" : ",") + num(x);
  return "[" + s + "]";
}

std::string valuesText(const campaign::Values& vs) {
  std::string s;
  for (const auto& [k, v] : vs) s += k + "=" + num(v) + "\n";
  return s;
}

// ---- xpic-fig8 --------------------------------------------------------------

int runFig8(const Options& opt) {
  const std::string name = opt.tiny ? "fig8-tiny" : "fig8";
  campaign::CampaignSpec spec;
  campaign::Campaign camp;
  std::vector<double> setupS;
  for (int i = 0; i < kFig8Setups; ++i) {
    desc::clearConstructionCaches();  // every setup starts as a fresh process
    const double t0 = now();
    {
      const SpanScope span("desc.parse");
      spec = campaign::campaignSpecFromDescText(
          campaign::builtinCampaignText(name), "builtin:" + name);
    }
    {
      const SpanScope span("campaign.build");
      camp = campaign::buildCampaign(spec);
    }
    setupS.push_back(now() - t0);
  }
  std::vector<std::string> ids;
  for (const auto& s : camp.scenarios) ids.push_back(s.name);
  std::sort(ids.begin(), ids.end());
  emitPlan(ids, false,
           Obj()
               .s("campaign", name)
               .n("workers", opt.workers)
               .n("scenarios", static_cast<double>(ids.size()))
               .n("cells", spec.fig8.xpic.cells())
               .n("steps", spec.fig8.xpic.steps)
               .s("machine", spec.fig8.machine.name)
               .s("backend", sim::toString(sim::effectiveProcessBackend(
                                 sim::defaultProcessBackend()))));
  emit("setup", Obj().raw("setup_s", samples(setupS)));

  std::atomic<int> campaignSpan{-1};
  for (auto& s : camp.scenarios) {
    auto inner = s.run;
    const int op = static_cast<int>(
        std::find(ids.begin(), ids.end(), s.name) - ids.begin());
    s.run = [inner, op, &campaignSpan](campaign::ScenarioContext& ctx) {
      tRootParent = campaignSpan.load();
      tOp = op;
      const SpanScope span("xpic.scenario");
      return inner(ctx);
    };
  }

  const double tTimed0 = now();
  campaign::CampaignReport rep;
  std::string reportDigest;
  {
    const SpanScope timed("timed");
    {
      const SpanScope span("campaign.run");
      campaignSpan = span.id();
      rep = campaign::runCampaign(camp, campaign::withJobs(opt.workers));
    }
    const SpanScope span("campaign.report");
    std::sort(rep.scenarios.begin(), rep.scenarios.end(),
              [](const auto& a, const auto& b) { return a.name < b.name; });
    reportDigest = hex(fnv1a(campaign::toJson(rep)));
  }
  const double timedS = now() - tTimed0;
  double maxScenario = 0;
  for (std::size_t i = 0; i < rep.scenarios.size(); ++i) {
    const auto& r = rep.scenarios[i];
    tOp = static_cast<int>(i);
    maxScenario = std::max(maxScenario, r.hostSec);
    const auto val = [&](const char* k) {
      const auto it = r.values.find(k);
      return it == r.values.end() ? 0.0 : it->second;
    };
    emitOp(r.name, r.error.empty(), r.error,
           hex(fnv1a(valuesText(r.values) + "--\n" + valuesText(r.metrics))),
           tTimed0, r.hostSec,
           Obj()
               .n("cg_iterations", val("cg_iterations"))
               .n("particle_count", val("particle_count"))
               .n("fields_sec", val("fields_sec"))
               .n("particles_sec", val("particles_sec")));
  }
  tOp = -1;
  countCacheStats();
  Obj derived;
  for (const auto& [k, v] : rep.derived) derived.n(k, v);
  emit("rep", Obj()
                  .n("timed_s", timedS)
                  .s("report_digest", reportDigest)
                  .raw("derived", derived.str())
                  .n("scenario_host_s_sum", rep.hostScenarioSecSum())
                  .n("max_scenario_s", maxScenario)
                  .n("steps", spec.fig8.xpic.steps));
  return 0;
}

// ---- halo-16k ---------------------------------------------------------------

/// Smallest generated fat-tree with >= n nodes (bench_fabric_scale's rule):
/// pods = ceil(sqrt(n)) rounded up to even, spines = pods / 2.
hw::TopologySpec fatTreeFor(int n) {
  int pods = 2;
  while (pods * pods < n) pods += 2;
  return hw::TopologySpec::fatTreeSpec(pods, pods / 2, (n + pods - 1) / pods);
}

std::uint64_t stampOf(std::uint64_t seed, int rank) {
  std::uint64_t st = seed ^ (static_cast<std::uint64_t>(rank) << 20);
  return splitmix(st);
}

int runHalo(const Options& opt) {
  const int ranks = opt.tiny ? 1024 : 16384;
  const std::size_t haloBytes = 8 << 10;
  const int steps = 5;
  const int allreduceEvery = 5;
  const std::size_t stackKb = 256;
  const hw::TopologySpec topo = fatTreeFor(ranks);
  int px = 1;
  for (int d = 1; static_cast<long long>(d) * d <= ranks; ++d) {
    if (ranks % d == 0) px = d;
  }
  const int py = ranks / px;

  emitPlan({"halo"}, false,
           Obj()
               .n("ranks", ranks)
               .n("halo_bytes", static_cast<double>(haloBytes))
               .n("steps", steps)
               .n("allreduce_every", allreduceEvery)
               .n("stack_kb", static_cast<double>(stackKb))
               .s("machine", "fat-tree(" + std::to_string(topo.pods) + "," +
                                 std::to_string(topo.spines) + "," +
                                 std::to_string(topo.nodesPerPod) + ")")
               .s("congestion", "packet")
               .s("routing", "structural")
               .s("backend", sim::toString(sim::effectiveProcessBackend(
                                 sim::ProcessBackend::Fiber)))
               .s("payload_seed", std::to_string(opt.seed)));

  // Declared in construction order; torn down explicitly, in reverse, in
  // the timed part so each layer's teardown gets its own span.
  std::unique_ptr<sim::Engine> engine;
  std::unique_ptr<hw::Machine> machine;
  std::unique_ptr<extoll::Fabric> fabric;
  std::unique_ptr<rm::ResourceManager> resources;
  pmpi::AppRegistry registry;
  mc::DeterministicChooser chooser;
  std::unique_ptr<pmpi::Runtime> rt;
  long stampMismatches = 0;

  const double t0 = now();
  {
    const SpanScope setup("setup");
    engine = std::make_unique<sim::Engine>(0x5eedULL +
                                           static_cast<std::uint64_t>(ranks),
                                           sim::ProcessBackend::Fiber);
    engine->setFiberStackBytes(stackKb * 1024);
    hw::MachineConfig cfg;
    {
      const SpanScope span("hw.materialize");
      cfg = topo.materialize();
    }
    machine = std::make_unique<hw::Machine>(*engine, std::move(cfg));
    fabric = std::make_unique<extoll::Fabric>(*machine);
    resources = std::make_unique<rm::ResourceManager>(*machine);
    rt = std::make_unique<pmpi::Runtime>(*machine, *fabric, *resources,
                                         registry);
    rt->setChooser(&chooser);
    // 2D periodic 4-neighbour exchange.  Each rank stamps the first and
    // last 8 bytes of its halo with a seed-derived word; receivers check
    // the stamps of what arrived, so delivered payload bytes are verified.
    registry.add("halo", [&](pmpi::Env& env) {
      const int r = env.rank();
      const int x = r % px;
      const int y = r / px;
      const auto at = [&](int xx, int yy) {
        return ((yy + py) % py) * px + ((xx + px) % px);
      };
      const std::array<int, 4> nb = {at(x - 1, y), at(x + 1, y),
                                     at(x, y - 1), at(x, y + 1)};
      std::vector<std::byte> sendBuf(haloBytes, std::byte{0});
      const std::uint64_t stamp = stampOf(opt.seed, r);
      std::memcpy(sendBuf.data(), &stamp, sizeof stamp);
      std::memcpy(sendBuf.data() + haloBytes - sizeof stamp, &stamp,
                  sizeof stamp);
      std::array<std::vector<std::byte>, 4> recvBuf;
      for (auto& b : recvBuf) b.assign(haloBytes, std::byte{0});
      for (int step = 0; step < steps; ++step) {
        std::array<pmpi::Request, 8> reqs;
        for (std::size_t d = 0; d < 4; ++d) {
          reqs[d] = env.irecv(env.world(), nb[d ^ 1], static_cast<int>(d),
                              pmpi::Bytes(recvBuf[d]));
        }
        for (std::size_t d = 0; d < 4; ++d) {
          reqs[4 + d] = env.isend(env.world(), nb[d], static_cast<int>(d),
                                  pmpi::ConstBytes(sendBuf));
        }
        env.computeDelay(sim::SimTime::us(200));
        env.waitAll(reqs);
        if (allreduceEvery > 0 && (step + 1) % allreduceEvery == 0) {
          env.allreduceValue(env.world(), static_cast<double>(step),
                             pmpi::Op::Max);
        }
      }
      for (std::size_t d = 0; d < 4; ++d) {
        const std::uint64_t want = stampOf(opt.seed, nb[d ^ 1]);
        std::uint64_t head = 0;
        std::uint64_t tail = 0;
        std::memcpy(&head, recvBuf[d].data(), sizeof head);
        std::memcpy(&tail, recvBuf[d].data() + haloBytes - sizeof tail,
                    sizeof tail);
        if (head != want || tail != want) ++stampMismatches;
      }
    });
    const SpanScope span("pmpi.launch");
    rt->launch("halo", hw::NodeKind::Cluster, ranks);
  }
  emit("setup", Obj().raw("setup_s", samples({now() - t0})));

  const double tTimed0 = now();
  sim::RunStats st;
  double messages = 0;
  {
    const SpanScope timed("timed");
    st = engine->run();
    messages = static_cast<double>(fabric->stats().messages);
    rt.reset();  // the Runtime destructor probe records pmpi.teardown
    {
      const SpanScope span("extoll.teardown");
      resources.reset();
      fabric.reset();
    }
    {
      const SpanScope span("hw.teardown");
      machine.reset();
    }
    {
      const SpanScope span("sim.teardown");
      engine.reset();
    }
  }
  const double timedS = now() - tTimed0;
  const bool ok = !st.deadlocked() && st.processFailures.empty() &&
                  stampMismatches == 0;
  std::string err;
  if (st.deadlocked()) err = "deadlocked";
  if (!st.processFailures.empty()) err = st.processFailures.front();
  if (stampMismatches != 0) {
    err = std::to_string(stampMismatches) + " halo stamp mismatches";
  }
  const std::string out = "events=" + std::to_string(st.eventsProcessed) +
                          " messages=" + num(messages) +
                          " end_s=" + num(st.endTime.toSeconds());
  emitOp("halo", ok, err, out, tTimed0, timedS);
  countCacheStats();
  emit("rep", Obj().n("timed_s", timedS));
  return 0;
}

// ---- recovery-fuzz ----------------------------------------------------------

int runRecovery(const Options& opt) {
  const std::vector<std::string> mcFiles = {
      "examples/mc/msg-race-tiny.json", "examples/mc/drop-retransmit-race.json",
      "examples/mc/checkpoint-during-flap.json"};
  const std::vector<std::string> chaosFiles = {
      "examples/chaos/transport-storm.json",
      "examples/chaos/recovery-loop.json"};
  // Fixed trial budgets; tiny uses each spec's own "trials".
  const std::vector<int> budgets = {1000, 400};

  const double t0 = now();
  std::map<std::string, mc::McScenario> mcScenarios;
  std::vector<chaos::ChaosSpec> specs;
  std::vector<std::vector<chaos::Schedule>> schedules;
  std::vector<std::vector<std::string>> scheduleDigests;
  {
    const SpanScope setup("setup");
    {
      const SpanScope span("desc.parse");
      for (const auto& f : mcFiles) {
        mcScenarios[f] =
            mc::scenarioFromDoc(desc::parse(desc::readFile(f), f), f);
      }
      for (const auto& f : chaosFiles) {
        specs.push_back(chaos::chaosSpecFromDescText(desc::readFile(f), f));
      }
    }
    const SpanScope span("chaos.generate");
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (!opt.tiny) specs[i].trials = budgets[i];
      const hw::MachineConfig world = mc::scenarioWorld(specs[i].scenario);
      schedules.emplace_back();
      scheduleDigests.emplace_back();
      for (int t = 0; t < specs[i].trials; ++t) {
        schedules[i].push_back(chaos::generateSchedule(
            specs[i].profile, world, chaos::trialSeed(specs[i], t)));
        scheduleDigests[i].push_back(
            hex(fnv1a(desc::dump(chaos::toDesc(schedules[i].back())))));
      }
    }
  }
  const double setupS = now() - t0;

  // Operation list: every mc file explored pruned and exhaustive, then
  // every chaos trial.  The order is fixed, not seeded: a trial's host time
  // depends on how many worlds its process has run before it, and a seeded
  // order moves where the known crash restarts the process (up to 20% of
  // the rep time between seeds).
  struct Op {
    std::string id;
    std::string mcFile;  ///< empty for a chaos trial
    bool pruned = true;
    std::size_t spec = 0;
    std::size_t trial = 0;
  };
  std::vector<Op> ops;
  for (const auto& f : mcFiles) {
    for (const bool pruned : {true, false}) {
      Op op;
      op.mcFile = f;
      op.pruned = pruned;
      op.id = "mc:" + mcScenarios[f].name +
              (pruned ? ":pruned" : ":exhaustive");
      ops.push_back(op);
    }
  }
  for (std::size_t i = 0; i < specs.size(); ++i) {
    for (std::size_t t = 0; t < schedules[i].size(); ++t) {
      Op op;
      op.spec = i;
      op.trial = t;
      op.id = "chaos:" + specs[i].name + ":" + std::to_string(t);
      ops.push_back(op);
    }
  }

  std::vector<std::string> ids;
  for (const auto& op : ops) ids.push_back(op.id);
  Obj key;
  for (const auto& s : specs) {
    key.n("trials:" + s.name, s.trials)
        .s("seed:" + s.name, std::to_string(s.seed));
  }
  key.n("mc_files", static_cast<double>(mcFiles.size()))
      .s("backend", sim::toString(sim::effectiveProcessBackend(
                        sim::defaultProcessBackend())));
  emitPlan(ids, true, key);
  emit("setup", Obj().raw("setup_s", samples({setupS})));

  const double tTimed0 = now();
  {
    const SpanScope timed("timed");
    for (std::size_t i = static_cast<std::size_t>(opt.fromOp); i < ops.size();
         ++i) {
      const Op& op = ops[i];
      tOp = static_cast<int>(i);
      const double s0 = now();
      if (!op.mcFile.empty()) {
        mc::McScenario sc = mcScenarios.at(op.mcFile);
        sc.budget.sleepSets = op.pruned;
        mc::ExploreResult res;
        std::string err;
        {
          const SpanScope span("mc.explore");
          try {
            res = mc::exploreScenario(sc);
          } catch (const std::exception& e) {
            err = e.what();
          }
        }
        if (res.violation) err = res.message;
        count("mc.schedules", static_cast<double>(res.schedulesRun));
        count("mc.pruned", static_cast<double>(res.equivalentPruned));
        emitOp(op.id, err.empty(), err,
               "schedules=" + std::to_string(res.schedulesRun) +
                   " pruned=" + std::to_string(res.equivalentPruned) +
                   " deferred=" + std::to_string(res.deferredBranches),
               tTimed0, now() - s0);
      } else {
        const chaos::Schedule& sched = schedules[op.spec][op.trial];
        std::string violation;
        std::string err;
        {
          const SpanScope span("chaos.trial");
          try {
            violation = chaos::runTrial(specs[op.spec].scenario, sched);
          } catch (const std::exception& e) {
            err = e.what();
          }
        }
        count("chaos.trials", 1);
        count("chaos.fault_events", static_cast<double>(sched.events.size()));
        count("chaos.violations", violation.empty() ? 0 : 1);
        if (err.empty()) err = violation;
        const std::string& inDigest = scheduleDigests[op.spec][op.trial];
        emitOp(op.id, err.empty(), err,
               hex(fnv1a(inDigest + "\n" + violation)), tTimed0, now() - s0);
      }
    }
  }
  const double timedS = now() - tTimed0;
  tOp = -1;
  countCacheStats();
  emit("rep", Obj().n("timed_s", timedS));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "cbsim_perfbench: no value for %s\n", a.c_str());
      return 2;
    }
    const std::string v = argv[++i];
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--size") {
      opt.tiny = v == "tiny";
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--trace") {
      gTrace = v == "1";
    } else if (a == "--from-op") {
      opt.fromOp = std::atoi(v.c_str());
    } else {
      std::fprintf(stderr, "cbsim_perfbench: unknown option %s\n", a.c_str());
      return 2;
    }
  }
  // Numbers from an unoptimized build, or from more workers than the host
  // has threads, would be meaningless: refuse instead of reporting them.
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "cbsim_perfbench: refusing a %s build\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  const unsigned hostThreads = std::thread::hardware_concurrency();
  if (opt.workload == "xpic-fig8" && hostThreads != 0 &&
      static_cast<unsigned>(opt.workers) > hostThreads) {
    std::fprintf(stderr, "cbsim_perfbench: %d workers > %u host threads\n",
                 opt.workers, hostThreads);
    return 2;
  }
  try {
    if (opt.workload == "xpic-fig8") return runFig8(opt);
    if (opt.workload == "halo-16k") return runHalo(opt);
    if (opt.workload == "recovery-fuzz") return runRecovery(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cbsim_perfbench: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "cbsim_perfbench: unknown workload '%s'\n",
               opt.workload.c_str());
  return 2;
}
