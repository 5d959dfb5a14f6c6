#!/usr/bin/env python3
"""Bench regression guard.

Compares a freshly generated BENCH_compile.json against the committed
bench/baseline.json:

- every gate-count/T-count/depth metric (the unoptimized/optimized
  blocks, per-pass before/after snapshots and counters, verification
  status, degraded markers) must be byte-identical — the compiler's
  output circuits are pinned;
- per-benchmark compile wall time may not exceed 2x the baseline
  (generous, to tolerate CI machine noise).

Usage: compare_baseline.py [--metrics-only] CURRENT BASELINE
       compare_baseline.py --optimize CURRENT BASELINE
       compare_baseline.py --history DIR
Exits non-zero with a per-benchmark report on any violation.

The --optimize form guards the optimizer's rule passes instead: CURRENT
and BASELINE are BENCH_optimize.json documents
(qsynth-bench-optimize/v1, written by `bench/main.exe optimize`).  The
optimizer's outputs and its rule counts are pinned exactly, as the
compile guard pins its outputs: every benchmark's `with_tier` block
(gate volume, T-count, CNOT count, Eqn. 2 cost), its `without_tier`
block (the no-rules sweep: cancellation plus identity windows), its
`rules` block (how often each rule fired) and its oracle verdict must
equal the baseline.  A missing benchmark, any oracle rejection, or a
drop in the total improved count also fails.

--metrics-only skips the wall-time comparison: the CI parallel job
uses it to pin a --jobs N run byte-identical to the sequential run,
where per-benchmark wall times legitimately differ under core
contention.

The --history form guards the parallel-scaling trajectory instead: DIR
is a bench-history store (history.jsonl of qsynth-bench-history/v1
datapoints appended by `bench/main.exe timing --jobs N --history DIR`).
The latest datapoint's speedup is compared against the median of the
prior datapoints recorded with the same job count; a drop below
SCALING_FACTOR of that median fails.  Absolute speedups are only
reported, never enforced — they depend on the machine's core count.
"""

import json
import statistics
import sys

TIMING_FIELDS = {"elapsed_seconds", "verification_seconds"}
PASS_TIMING_FIELDS = {"wall_seconds", "cpu_seconds"}
WALL_FACTOR = 2.0
# Below this many seconds, wall-time ratios are dominated by clock and
# scheduler noise; such benchmarks only get the metric check.
WALL_FLOOR_SECONDS = 0.05


def strip_pass_timing(p):
    return {k: v for k, v in p.items() if k not in PASS_TIMING_FIELDS}


def metrics_view(bench):
    view = {}
    for key, value in bench.items():
        if key in TIMING_FIELDS:
            continue
        if key == "passes":
            view[key] = [strip_pass_timing(p) for p in value]
        else:
            view[key] = value
    return view


SCALING_FACTOR = 0.75
# With fewer prior datapoints than this, the trajectory is too short to
# call a regression; the check only reports.
MIN_HISTORY = 3


def check_history(store_dir):
    path = f"{store_dir}/history.jsonl"
    try:
        with open(path) as f:
            points = [json.loads(line) for line in f if line.strip()]
    except OSError as e:
        sys.exit(f"bench history: cannot read {path}: {e}")
    points = [p for p in points if p.get("schema") == "qsynth-bench-history/v1"]
    if not points:
        sys.exit(f"bench history: no datapoints in {path}")
    latest = points[-1]
    jobs = latest["jobs"]
    speedup = latest["speedup"]
    prior = [p["speedup"] for p in points[:-1] if p["jobs"] == jobs]
    print(
        f"bench history: {len(points)} datapoint(s); latest commit "
        f"{latest.get('commit', '?')} jobs={jobs} "
        f"seq {latest['seq_wall_seconds']:.2f}s par {latest['par_wall_seconds']:.2f}s "
        f"speedup {speedup:.2f}x"
    )
    if len(prior) < MIN_HISTORY:
        print(
            f"bench history: {len(prior)} prior datapoint(s) at jobs={jobs} "
            f"(need {MIN_HISTORY}) — scaling check reported only"
        )
        return
    median = statistics.median(prior)
    if speedup < SCALING_FACTOR * median:
        sys.exit(
            f"bench history: scaling REGRESSED — speedup {speedup:.2f}x is below "
            f"{SCALING_FACTOR:.0%} of the prior median {median:.2f}x at jobs={jobs}"
        )
    print(
        f"bench history: scaling ok ({speedup:.2f}x vs prior median {median:.2f}x "
        f"at jobs={jobs})"
    )


COST_EPS = 1e-6


def check_optimize(current_path, baseline_path):
    with open(current_path) as f:
        current = json.load(f)
    with open(baseline_path) as f:
        baseline = json.load(f)
    for doc, path in ((current, current_path), (baseline, baseline_path)):
        if doc.get("schema") != "qsynth-bench-optimize/v1":
            sys.exit(f"{path}: not a qsynth-bench-optimize/v1 document")

    cur = {(b["suite"], b["name"]): b for b in current["benchmarks"]}
    base = {(b["suite"], b["name"]): b for b in baseline["benchmarks"]}
    failures = []

    for key in sorted(base.keys() - cur.keys()):
        failures.append(f"{key[0]}/{key[1]}: missing from current run")

    for key in sorted(base.keys() & cur.keys()):
        b, c = base[key], cur[key]
        name = f"{key[0]}/{key[1]}"
        if c["oracle"] == "rejected":
            failures.append(f"{name}: equivalence oracle REJECTED the tier output")
        elif c["oracle"] != b["oracle"]:
            failures.append(f"{name}: oracle verdict {b['oracle']} -> {c['oracle']}")
        for block, label in (("with_tier", "with-tier"), ("without_tier", "without-tier")):
            bt, ct = b[block], c[block]
            for field in ("gate_volume", "t_count", "cnot_count"):
                if ct[field] != bt[field]:
                    failures.append(
                        f"{name}: {label} {field} changed {bt[field]} -> {ct[field]}"
                    )
            if abs(ct["cost"] - bt["cost"]) > COST_EPS:
                failures.append(
                    f"{name}: {label} cost changed {bt['cost']:.2f} -> {ct['cost']:.2f}"
                )
        if c["rules"] != b["rules"]:
            failures.append(f"{name}: rule counts changed {b['rules']} -> {c['rules']}")

    if current["improved"] < baseline["improved"]:
        failures.append(
            f"improved count dropped: {baseline['improved']} -> "
            f"{current['improved']} of {current['total']}"
        )

    if failures:
        print("optimize regression guard FAILED:")
        for f in failures:
            print(f"  {f}")
        sys.exit(1)
    print(
        f"optimize regression guard ok: {len(cur)} benchmarks, outputs with "
        f"and without rules and rule counts identical, "
        f"{current['improved']}/{current['total']} improved"
    )


def main():
    argv = sys.argv[1:]
    if len(argv) == 2 and argv[0] == "--history":
        check_history(argv[1])
        return
    if len(argv) == 3 and argv[0] == "--optimize":
        check_optimize(argv[1], argv[2])
        return
    metrics_only = False
    if argv and argv[0] == "--metrics-only":
        metrics_only = True
        argv = argv[1:]
    if len(argv) != 2:
        sys.exit(
            f"usage: {sys.argv[0]} [--metrics-only] CURRENT BASELINE "
            f"| --optimize CURRENT BASELINE | --history DIR"
        )
    with open(argv[0]) as f:
        current = json.load(f)
    with open(argv[1]) as f:
        baseline = json.load(f)
    if current.get("schema") != baseline.get("schema"):
        sys.exit(
            f"schema mismatch: {current.get('schema')} vs {baseline.get('schema')}"
        )

    cur = {(b["suite"], b["name"]): b for b in current["benchmarks"]}
    base = {(b["suite"], b["name"]): b for b in baseline["benchmarks"]}
    failures = []

    missing = base.keys() - cur.keys()
    for key in sorted(missing):
        failures.append(f"{key[0]}/{key[1]}: missing from current run")

    for key in sorted(base.keys() & cur.keys()):
        b, c = base[key], cur[key]
        name = f"{key[0]}/{key[1]}"
        bm, cm = metrics_view(b), metrics_view(c)
        if bm != cm:
            changed = [k for k in set(bm) | set(cm) if bm.get(k) != cm.get(k)]
            failures.append(f"{name}: circuit metrics changed ({sorted(changed)})")
        bt, ct = b["elapsed_seconds"], c["elapsed_seconds"]
        if not metrics_only and bt >= WALL_FLOOR_SECONDS and ct > WALL_FACTOR * bt:
            failures.append(
                f"{name}: wall time regressed {bt:.3f}s -> {ct:.3f}s "
                f"(> {WALL_FACTOR:.0f}x baseline)"
            )

    if failures:
        print("bench regression guard FAILED:")
        for f in failures:
            print(f"  {f}")
        sys.exit(1)
    total_base = sum(b["elapsed_seconds"] for b in base.values())
    total_cur = sum(c["elapsed_seconds"] for c in cur.values())
    print(
        f"bench regression guard ok: {len(cur)} benchmarks, metrics identical, "
        f"wall {total_base:.3f}s baseline vs {total_cur:.3f}s current"
    )


if __name__ == "__main__":
    main()
