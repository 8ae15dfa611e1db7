#!/usr/bin/env python3
"""Budget gate for repeated bench_fabric_scale runs.

    python3 .github/scale_gate.py PREFIX --max-wall-sec S --max-rss-per-rank-kb K

Reads every PREFIX_<i>.json written by `bench_fabric_scale --out` (one scale
per file) and fails unless the median wall clock and the median resident
KB/rank over those runs are within the budgets.
"""

import argparse
import glob
import json
import statistics
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("prefix")
    ap.add_argument("--max-wall-sec", type=float, required=True)
    ap.add_argument("--max-rss-per-rank-kb", type=float, required=True)
    args = ap.parse_args()

    rows = []
    for path in sorted(glob.glob(f"{args.prefix}_*.json")):
        with open(path) as f:
            scales = json.load(f)["scales"]
        if len(scales) != 1:
            sys.exit(f"FAIL: {path}: expected one scale, found {len(scales)}")
        rows.append(scales[0])
    if not rows:
        sys.exit(f"FAIL: no {args.prefix}_*.json results")

    failed = False
    for key, bound, unit in (("wall_sec", args.max_wall_sec, "s"),
                             ("rss_per_rank_kb", args.max_rss_per_rank_kb, "KB")):
        values = [r[key] for r in rows]
        median = statistics.median(values)
        runs = ", ".join(f"{v:.2f}" for v in values)
        verdict = "ok" if median <= bound else "FAIL"
        print(f"{verdict}: {rows[0]['ranks']} ranks {key} median {median:.2f} {unit}"
              f" (budget {bound:g} {unit}; runs: {runs})")
        failed = failed or median > bound
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
