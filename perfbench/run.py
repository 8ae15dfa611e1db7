#!/usr/bin/env python3
"""cbsim benchmark: builds cbsim_perfbench, runs one workload, prints metrics.

    python3 perfbench/run.py --workload xpic-fig8|halo-16k|recovery-fuzz \
        --seed N --seconds S --trace 0|1 [--size full|tiny]

Run from the repository root.  The measuring program,
perfbench/cbsim_perfbench.cpp, is built from source into .bench_build (or
$CARGO_TARGET_DIR when set).  Each repetition of the workload runs in its
own cbsim_perfbench process, which reports every finished operation as one
JSON line; if the process dies, the operation in flight is counted as
failed and, where operations are independent worlds, a new process resumes
at the next one.  Repetitions continue until --seconds have been measured.  Every simulated output is
checked against perfbench/pins.json.

The last line of stdout is one JSON object: {"correct", "attempted",
"failed", "metrics"}.  --trace 0 reports the end-to-end metrics, --trace 1
the per-layer metrics (repetitions alternate untraced/traced so the
tracing overhead is measured in the same run).

    python3 perfbench/run.py --write-pins   # re-pin simulated outputs
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PINS = os.path.join(HERE, "pins.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")  # metric names and units
WORKLOADS = ("xpic-fig8", "halo-16k", "recovery-fuzz")
GOLDEN_FIG8 = os.path.join(ROOT, "tests", "golden", "fig8.txt")
MIN_REPS = {0: 3, 1: 2}  # per trace mode; traced runs need one rep of each

# Paper section IV-C statements as (derived key, low, high); inside the
# range the error is 0.
PAPER = [
    ("ratio/fields_cluster_advantage", 6.00, 6.00),
    ("ratio/particles_booster_advantage", 1.35, 1.35),
    ("gain/C+B_vs_Cluster/n1", 1.28, 1.28),
    ("gain/C+B_vs_Booster/n1", 1.21, 1.21),
    ("ratio/intermodule_exchange_share", 0.03, 0.04),
    ("gain/C+B_vs_Cluster/n8", 1.38, 1.38),
    ("gain/C+B_vs_Booster/n8", 1.34, 1.34),
    ("efficiency/C+B/n8", 0.85, 0.85),
    ("efficiency/Cluster/n8", 0.79, 0.79),
    ("efficiency/Booster/n8", 0.77, 0.77),
]



def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg):
    log("perfbench: " + msg)
    sys.exit(1)


# ---- build ------------------------------------------------------------------

def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no cbsim sources next to perfbench/ (expected ../src)")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"] + gen)
    steps.append(["cmake", "--build", out, "--target", "cbsim_perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "cbsim_perfbench")


def cmake_cache(key):
    try:
        with open(os.path.join(build_dir(), "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def fingerprint():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        cpu = platform.processor() or "unknown"
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    try:
        compiler = subprocess.run([compiler, "--version"], capture_output=True,
                                  text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        pass
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True).stdout.strip()
    except OSError:
        sha = ""
    src = hashlib.sha256()
    for d, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        for name in sorted(files):
            with open(os.path.join(d, name), "rb") as f:
                src.update(name.encode() + b"\0" + f.read())
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "compiler": compiler, "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
            "git_sha": sha or "none", "src_sha256": src.hexdigest()[:16]}


# ---- one repetition ---------------------------------------------------------

def child_env():
    # The process backend and stack size are part of the workload key;
    # ambient overrides must not change them.
    return {k: v for k, v in os.environ.items() if not k.startswith("CBSIM_")}


class Rep:
    """Everything one repetition reported, across its processes."""

    def __init__(self, traced):
        self.traced = traced
        self.plan = None
        self.resumable = False
        self.key = {}
        self.setup_s = []
        self.ops = {}         # id -> op line, or {"crashed": signal}
        self.counters = {}
        self.spans = []       # (segment, span) pairs
        self.timed_s = 0.0
        self.rep = None       # the final "rep" line

    def add_counters(self, c):
        for k, v in c.items():
            if k.endswith("_max"):
                self.counters[k] = max(self.counters.get(k, 0.0), v)
            else:
                self.counters[k] = self.counters.get(k, 0.0) + v


def read_lines(proc, rep, segment):
    """Consumes one cbsim_perfbench process's lines; returns when its stdout closes.

    Returns the last operation's end ("t", seconds into the timed part) and
    when its line arrived, from which a crash's in-flight time is taken.
    """
    last_op_t, last_line_at = 0.0, None
    for raw in proc.stdout:
        line = json.loads(raw)
        last_line_at = time.monotonic()
        kind = line["kind"]
        # A resumed process repeats the setup; that is not the rep's.
        if segment == 0 or kind not in ("plan", "setup"):
            rep.add_counters(line.get("counters", {}))
            rep.spans.extend((segment, s) for s in line.get("spans", []))
        if kind == "plan":
            rep.plan, rep.resumable = line["ops"], line["resumable"]
            rep.key = line["key"]
        elif kind == "setup" and segment == 0:
            rep.setup_s = line["setup_s"]
        elif kind == "op":
            rep.ops[line["id"]] = line
            last_op_t = line["t"]
        elif kind == "rep":
            rep.rep = line
    return last_op_t, last_line_at


def run_rep(binary, args, traced):
    rep = Rep(traced)
    start = 0
    segment = 0
    while True:
        cmd = [binary, "--workload", args.workload, "--size", args.size,
               "--seed", str(args.seed), "--trace", "1" if traced else "0",
               "--from-op", str(start)]
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                                env=child_env(), cwd=ROOT)
        try:
            last_op_t, last_line_at = read_lines(proc, rep, segment)
        finally:
            if proc.poll() is None:  # interrupted: never leave it running
                proc.kill()
            proc.stdout.close()
            status = proc.wait()
        if rep.plan is None:
            fail("cbsim_perfbench exited with status %d before starting %s"
                 % (status, args.workload))
        if rep.rep is not None and status == 0:
            rep.timed_s += rep.rep["timed_s"]
            return rep
        # The process died: the first unreported operation is the one in
        # flight.  Its time is what passed between the last line and exit.
        rep.timed_s += last_op_t + (time.monotonic() - (last_line_at or
                                                        time.monotonic()))
        pending = [i for i in range(start, len(rep.plan))
                   if rep.plan[i] not in rep.ops]
        if not pending:
            return rep
        why = ("signal %d" % -status if status < 0
               else "exit status %d" % status)
        crashed = pending[0] if rep.resumable else None
        for i in ([crashed] if rep.resumable else pending):
            op_id = rep.plan[i]
            rep.ops[op_id] = {"id": op_id, "crashed": why}
            print("perfbench: %s: operation %s crashed (%s)%s"
                  % (args.workload, op_id, why, repro_hint(rep, op_id)),
                  flush=True)
        if not rep.resumable or crashed + 1 >= len(rep.plan):
            return rep
        start = crashed + 1
        segment += 1


def repro_hint(rep, op_id):
    """The chaos trial seed and command line that replays a crashed trial."""
    parts = op_id.split(":")
    if parts[0] != "chaos":
        return ""
    spec, trial = parts[1], int(parts[2])
    seed = (int(rep.key["seed:" + spec]) + trial * 0x9E3779B97F4A7C15) % 2**64
    return ("; trial seed %d: cbsim_chaos --scenario-file "
            "examples/chaos/%s.json --trials 1 --seed %d" % (seed, spec, seed))


# ---- correctness ------------------------------------------------------------

def load_pins():
    try:
        with open(PINS) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (PINS, e))


def paper_err_pct(derived):
    worst = 0.0
    for key, lo, hi in PAPER:
        v = derived[key]
        if v < lo:
            worst = max(worst, (lo - v) / lo * 100)
        elif v > hi:
            worst = max(worst, (v - hi) / hi * 100)
    return worst


def golden_mismatches(derived):
    bad = []
    with open(GOLDEN_FIG8) as f:
        for line in f:
            if line.startswith("#") or not line.strip():
                continue
            key, value, tol = line.split()
            if abs(derived.get(key, float("inf")) - float(value)) > float(tol):
                bad.append(key)
    return bad


def check(args, reps, pins):
    """Counts attempted/failed operations and lists correctness errors.

    An operation fails if its process crashed, it reported an error or an
    invariant violation, or its output differs from the pinned one.  A crash
    produces no output, so it counts as failed without making the run
    incorrect; every other failure does both.
    """
    want = pins[args.size][args.workload]
    errors, attempted, failed = [], 0, 0
    for rep in reps:
        for op_id in rep.plan:
            op = rep.ops.get(op_id)
            if op is None:
                continue
            attempted += 1
            if "crashed" in op:
                failed += 1
                continue
            pinned = want["ops"].get(op_id)
            problem = None
            if not op["ok"]:
                problem = "error: " + op["err"]
            elif pinned is not None and op["out"] != pinned:
                problem = "output %s, pinned %s" % (op["out"], pinned)
            elif op_id not in want["ops"]:
                problem = "no pinned output"
            if problem:
                failed += 1
                errors.append("%s: %s" % (op_id, problem))
        if args.workload == "xpic-fig8" and rep.rep is not None:
            if rep.rep["report_digest"] != want["report_digest"]:
                errors.append("fig8 report digest %s, pinned %s" % (
                    rep.rep["report_digest"], want["report_digest"]))
            if args.size == "full":
                bad = golden_mismatches(rep.rep["derived"])
                if bad:
                    errors.append("derived values off tests/golden/fig8.txt: "
                                  + ", ".join(bad))
    return attempted, failed, errors


# ---- metrics -----------------------------------------------------------------

def median(values):
    return statistics.median(values) if values else 0.0


def ratio(a, b):
    return a / b if b else 0.0


def end_to_end(reps, attempted, failed):
    per_event = [r.counters["sim.run_s"] / r.counters["sim.events"] * 1e9
                 for r in reps if r.counters.get("sim.events")]
    return {
        "wall_s": median([r.timed_s for r in reps]),
        "setup_s": median([median(r.setup_s) for r in reps if r.setup_s]),
        "peak_rss_mb":
            max(r.counters.get("proc.vmhwm_kb_max", 0) for r in reps) / 1024,
        "host_ns_per_event": median(per_event),
        "ok_share": ratio(attempted - failed, attempted),
    }


def union_length(intervals):
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def span_stats(rep):
    """Per-name total and self seconds, plus the timed region's coverage.

    A span's self time is its duration minus the union of its children
    (children may run on other threads, e.g. campaign scenarios).
    """
    spans = {}
    children = {}
    for seg, (name, t0, t1, sid, parent, _op) in rep.spans:
        spans[(seg, sid)] = (name, t0, t1)
        children.setdefault((seg, parent), []).append((t0, t1))
    total, self_s = {}, {}
    covered = region = 0.0
    for key, (name, t0, t1) in spans.items():
        kids = children.get(key, [])
        total[name] = total.get(name, 0.0) + (t1 - t0)
        self_s[name] = self_s.get(name, 0.0) + (t1 - t0) - union_length(kids)
        if name == "timed":
            region += t1 - t0
            covered += union_length(kids)
    coverage = covered / region if region > 0 else 0.0
    return total, self_s, coverage


def layer_metrics(rep, overhead_pct):
    c = rep.counters
    total, self_s, coverage = span_stats(rep)
    t = lambda *names: sum(total.get(n, 0.0) for n in names)
    ops = [op for op in rep.ops.values() if "crashed" not in op]
    info = lambda k: sum(op.get("info", {}).get(k, 0.0) for op in ops)
    mb = 1.0 / (1 << 20)
    events = c.get("sim.events", 0.0)
    hits = c.get("extoll.route_hits", 0.0)
    entries = c.get("extoll.route_entries", 0.0)
    r = rep.rep or {}
    steps = r.get("steps", 0)
    particle_steps = info("particle_count") * steps
    scenario_sum = r.get("scenario_host_s_sum", 0.0)
    campaign_run = t("campaign.run")
    workers = rep.key.get("workers", 1)
    mc_s, trial_s = t("mc.explore"), t("chaos.trial")
    return {
        "trace.overhead_pct": overhead_pct,
        "trace.coverage_pct": coverage * 100,
        "trace.spans": float(len(rep.spans)),
        "sim.run_s": c.get("sim.run_s", 0.0),
        "sim.events": events,
        "sim.processes_spawned": c.get("sim.processes_spawned", 0.0),
        "sim.ns_per_event": ratio(c.get("sim.run_s", 0.0), events) * 1e9,
        "pmpi.build_s": t("pmpi.build", "pmpi.launch"),
        "pmpi.teardown_s": t("pmpi.teardown"),
        "pmpi.payload_peak_mb": c.get("pmpi.payload_peak_bytes_max", 0.0) * mb,
        "pmpi.request_slots": c.get("pmpi.request_slots_max", 0.0),
        "pmpi.match_peak_entries": c.get("pmpi.match_peak_entries_max", 0.0),
        "pmpi.channel_mb": c.get("pmpi.channel_bytes_max", 0.0) * mb,
        "extoll.build_s": t("extoll.build"),
        "extoll.messages": c.get("extoll.messages", 0.0),
        "extoll.mb": c.get("extoll.bytes", 0.0) * mb,
        "extoll.route_hits": hits,
        "extoll.route_entries": entries,
        "extoll.route_hit_ratio": ratio(hits, hits + entries),
        "extoll.route_cache_mb":
            c.get("extoll.route_cache_bytes_max", 0.0) * mb,
        "extoll.retransmits": c.get("extoll.retransmits", 0.0),
        "extoll.drops": c.get("extoll.drops", 0.0),
        "extoll.reroutes": c.get("extoll.reroutes", 0.0),
        "hw.materialize_s": t("hw.materialize"),
        "hw.machine_s": t("hw.machine"),
        "desc.parse_s": t("desc.parse"),
        "desc.cache_hits": c.get("desc.cache_hits", 0.0),
        "desc.cache_misses": c.get("desc.cache_misses", 0.0),
        "campaign.run_s": campaign_run,
        "campaign.scenario_host_s_sum": scenario_sum,
        "campaign.max_scenario_s": r.get("max_scenario_s", 0.0),
        "campaign.pool_efficiency": ratio(scenario_sum, workers * campaign_run),
        "campaign.report_s": t("campaign.report"),
        "campaign.self_s": self_s.get("campaign.run", 0.0),
        "xpic.cg_iterations": info("cg_iterations"),
        "xpic.particle_steps": particle_steps,
        "xpic.host_ns_per_particle_step":
            ratio(scenario_sum, particle_steps) * 1e9,
        "xpic.sim_fields_s": info("fields_sec"),
        "xpic.sim_particles_s": info("particles_sec"),
        "xpic.self_s": self_s.get("xpic.scenario", 0.0),
        "mc.explore_s": mc_s,
        "mc.schedules": c.get("mc.schedules", 0.0),
        "mc.pruned": c.get("mc.pruned", 0.0),
        "mc.schedules_per_s": ratio(c.get("mc.schedules", 0.0), mc_s),
        "mc.self_s": self_s.get("mc.explore", 0.0),
        "chaos.generate_s": t("chaos.generate"),
        "chaos.trial_s": trial_s,
        "chaos.trials": c.get("chaos.trials", 0.0),
        "chaos.trials_per_s": ratio(c.get("chaos.trials", 0.0), trial_s),
        "chaos.fault_events": c.get("chaos.fault_events", 0.0),
        "chaos.violations": c.get("chaos.violations", 0.0),
        "chaos.crashed": float(sum("crashed" in op and op["id"][:6] == "chaos:"
                                   for op in rep.ops.values())),
        "chaos.self_s": self_s.get("chaos.trial", 0.0),
    }


def write_trace(args, reps):
    """Keeps the traced repetitions' spans for inspection (Chrome format)."""
    events = []
    for i, rep in enumerate(reps):
        for seg, (name, t0, t1, sid, parent, op) in rep.spans:
            events.append({"name": name, "ph": "X", "ts": t0 * 1e6,
                           "dur": (t1 - t0) * 1e6, "pid": i, "tid": seg,
                           "args": {"id": sid, "parent": parent, "op": op}})
    path = os.path.join(build_dir(), "trace-%s.json" % args.workload)
    with open(path, "w") as f:
        json.dump({"traceEvents": events}, f)
    return path


# ---- main --------------------------------------------------------------------

def measure(args, binary):
    """Runs repetitions while another one still fits in --seconds."""
    reps = []
    t0 = time.monotonic()
    while True:
        # Traced runs alternate untraced and traced repetitions.
        traced = args.trace == 1 and len(reps) % 2 == 1
        reps.append(run_rep(binary, args, traced))
        elapsed = time.monotonic() - t0
        if (len(reps) >= MIN_REPS[args.trace]
                and elapsed * (len(reps) + 1) / len(reps) > args.seconds):
            return reps


def write_pins(binary):
    pins = {}
    for size in ("full", "tiny"):
        pins[size] = {}
        for w in WORKLOADS:
            args = argparse.Namespace(workload=w, size=size, seed=1, trace=0)
            rep = run_rep(binary, args, traced=False)
            entry = {"ops": {op_id: (None if "crashed" in op else op["out"])
                             for op_id, op in sorted(rep.ops.items())}}
            if w == "xpic-fig8":
                entry["report_digest"] = rep.rep["report_digest"]
                entry["paper_err_pct"] = paper_err_pct(rep.rep["derived"])
            pins[size][w] = entry
            log("pinned %s/%s: %d operations" % (size, w, len(entry["ops"])))
    with open(PINS, "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=32)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--write-pins", action="store_true")
    args = ap.parse_args()
    if not args.write_pins and not args.workload:
        ap.error("--workload is required")
    args.seed %= 2**64
    # SIGTERM unwinds like Ctrl-C, so run_rep kills the process it waits on.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    binary = build()
    if args.write_pins:
        write_pins(binary)
        return
    pins = load_pins()
    reps = measure(args, binary)
    attempted, failed, errors = check(args, reps, pins)

    host = fingerprint()
    print("host: " + json.dumps(host, sort_keys=True))
    print("workload key: " + json.dumps(
        dict(reps[0].key, workload=args.workload, size=args.size,
             seed=args.seed, seconds=args.seconds, reps=len(reps)),
        sort_keys=True))
    if args.workload == "xpic-fig8" and reps[0].rep is not None:
        err = paper_err_pct(reps[0].rep["derived"])
        print("paper_err_pct: %.4f %% (pinned %.4f %%)"
              % (err, pins[args.size]["xpic-fig8"]["paper_err_pct"]))
        if args.size == "full" and abs(
                err - pins["full"]["xpic-fig8"]["paper_err_pct"]) > 1e-9:
            errors.append("paper_err_pct %.6f differs from the pin" % err)
    walls = sorted(r.timed_s for r in reps)
    print("timed region: %d repetitions, min %.4f s, median %.4f s, max %.4f s"
          % (len(walls), walls[0], median(walls), walls[-1]))
    print("failed_share: %.6f (%d of %d operations)"
          % (ratio(failed, attempted), failed, attempted))

    with open(SPEC) as f:
        spec = json.load(f)
    if args.trace == 0:
        computed = end_to_end(reps, attempted, failed)
        wanted = spec["end_to_end"]
    else:
        plain = [r.timed_s for r in reps if not r.traced]
        traced_reps = [r for r in reps if r.traced]
        overhead = (median([r.timed_s for r in traced_reps]) / median(plain) - 1
                    ) * 100 if plain else 0.0
        per_rep = [layer_metrics(r, overhead) for r in traced_reps]
        computed = {k: median([m[k] for m in per_rep]) for k in per_rep[0]}
        wanted = spec["per_layer"]
        coverage = min(m["trace.coverage_pct"] for m in per_rep)
        if coverage < 90:
            errors.append("spans cover only %.1f%% of the timed region"
                          % coverage)
        print("trace: " + write_trace(args, traced_reps))

    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]}
               for m in wanted}
    for e in errors[:20]:
        print("perfbench: INCORRECT " + e)
    for k, m in metrics.items():
        print("%-34s %16.6g %s" % (k, m["value"], m["unit"]))
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
