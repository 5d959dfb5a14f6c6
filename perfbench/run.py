#!/usr/bin/env python3
"""The compiler's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (why each was chosen: perfbench/README.md):
  table8-synth   the five Table 7/8 cascades T6_b..T10_b to big96,
                 verification skipped
  table8-verify  the one-gate prefixes of T6_b and T7_b to big96,
                 QMDD-verified
  serve-mixed    seeded streams of compile requests against `qsc serve`

The command runs the unit checks of its own statistics, builds
bin/qsc.exe and perfbench/layers.exe from source with dune, runs the
workload for S seconds and checks every output.  It prints a table of
the metrics, each with its unit and the number of samples behind it,
and then, as the last line, one JSON object: the end-to-end metrics
with --trace 0, the per-layer metrics of a separate traced run with
--trace 1.  It exits 0 when every check passed and 1 otherwise.
"""

import argparse
import io
import json
import os
import subprocess
import sys
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import serve_mixed  # noqa: E402
import stats  # noqa: E402
import test_stats  # noqa: E402

ROOT = os.path.dirname(HERE)
OUT = os.path.join("perfbench", "out")
BUILD_TARGETS = ("bin/qsc.exe", "perfbench/layers.exe")
QSC = os.path.join("_build", "default", "bin", "qsc.exe")
LAYERS = os.path.join("_build", "default", "perfbench", "layers.exe")
WORKLOADS = ("table8-synth", "table8-verify", "serve-mixed")

# (name, unit) of every end-to-end metric, measured with tracing off.
# compile_rel is the bounded time: seconds per pass over the workload's
# inputs divided by the seconds of one run of the reference kernel timed
# next to them (`probe` in layers.ml), so that the host's drift cancels.
END_TO_END = (
    ("compile_rel", "ref"),
    ("alloc_mwords", "Mwords"),
    ("output_cost", "cost"),
    ("output_gates", "gates"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

# Span name -> (self-time metric, share metric) of its layer.  Every
# qmdd.* check span belongs to verification.
LAYER_SPANS = {
    "qformats.parse": ("qformats.parse_s", "qformats.parse_share"),
    "esop.cascade": ("esop.cascade_s", "esop.cascade_share"),
    "optimize.pre": ("optimize.pre_s", "optimize.pre_share"),
    "decompose": ("decompose.s", "decompose.share"),
    "route": ("route.s", "route.share"),
    "route.expand": ("route.expand_s", "route.expand_share"),
    "optimize.post": ("optimize.post_s", "optimize.post_share"),
    "qmdd": ("qmdd.verify_s", "qmdd.verify_share"),
}

COUNTERS = (
    ("decompose.gates_out", "gates"),
    ("route.swaps_inserted", "count"),
    ("route.swap_hops", "count"),
    ("route.gates_out", "gates"),
    ("optimize.iterations", "count"),
    ("optimize.gates_removed", "gates"),
    ("rewrite.fires", "count"),
    ("qmdd.checks", "count"),
    ("qmdd.peak_nodes", "nodes"),
    ("qmdd.allocated_nodes", "nodes"),
)

SERVE_LAYER = (
    ("serve.server_ms", "ms"),
    ("serve.wait_ms", "ms"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.miss_p50_ms", "ms"),
    ("serve.hit_ratio", "ratio"),
    ("serve.shed", "count"),
    ("serve.tail_ms", "ms"),
    ("loadgen.late_ms", "ms"),
)

# The same run's wall-clock figures and the probe's own time: printed
# with every run and recorded in the traced one, but not bounded,
# because they move with the host's speed.
WALL = (
    ("wall.compile_s", "s"),
    ("wall.ops_per_s", "1/s"),
    ("host.ref_ms", "ms"),
)

# serve-mixed's client latencies: printed with every run as well, since
# they are what a client of the daemon sees.
CLIENT_LATENCY = (
    ("serve.hit_p50_ms", "ms"),
    ("serve.miss_p50_ms", "ms"),
    ("serve.tail_ms", "ms"),
)

# (name, unit) of every per-layer metric, measured in the traced run.
PER_LAYER = (
    tuple((t, "s") for t, _ in LAYER_SPANS.values())
    + tuple((share, "ratio") for _, share in LAYER_SPANS.values())
    + COUNTERS
    + (
        ("optimize.alloc_mwords", "Mwords"),
        ("qmdd.mul_hit_ratio", "ratio"),
        ("qmdd.add_hit_ratio", "ratio"),
        ("qmdd.alloc_mwords", "Mwords"),
        ("trace.overhead_s", "s"),
    )
    + SERVE_LAYER
    + WALL
)


class Failure(Exception):
    """The benchmark cannot run: no result is printed."""


def unit_checks():
    suite = unittest.defaultTestLoader.loadTestsFromModule(test_stats)
    out = io.StringIO()
    if not unittest.TextTestRunner(stream=out, verbosity=0).run(suite).wasSuccessful():
        raise Failure("statistics unit checks failed:\n" + out.getvalue())


def build():
    try:
        proc = subprocess.run(
            # No shared dune cache: the build stays inside the checkout.
            ["dune", "build", "--root", ".", "--cache=disabled", *BUILD_TARGETS],
            capture_output=True, text=True, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise Failure(f"dune build: {e}")
    if proc.returncode != 0:
        raise Failure("dune build failed:\n" + proc.stderr[-4000:])


def metric(value, n):
    """A reported value with the number of samples behind it."""
    return {"value": value, "n": n}


def tail_ms(latencies):
    """The tail latency in ms of per-operation seconds: the slowest
    operation when there are too few for a tail percentile."""
    t = stats.tail(latencies)
    value, label = (t[1], f"p{t[0]:g}") if t else (max(latencies), "max")
    return metric(value * 1e3, f"{len(latencies)}, {label}")


# --- traced runs: per-layer numbers from spans and counters -----------


def layer_metrics(passes, spans):
    """Per-pass layer numbers, each the median over the traced passes:
    self time and share of every layer, the replica's counters, and the
    tracing overhead."""
    self_s = stats.self_times(spans)
    per_pass = {}
    for s in spans:
        p = per_pass.setdefault(s["pass"], dict.fromkeys(LAYER_SPANS, 0.0))
        if s["parent"] < 0:
            p["total"] = p.get("total", 0.0) + (s["stop_ns"] - s["start_ns"]) / 1e9
        layer = "qmdd" if s["name"].startswith("qmdd.") else s["name"]
        if layer in LAYER_SPANS:
            p[layer] += self_s[s["id"]]
    n = len(passes)
    out = {}
    for layer, (time_metric, share) in LAYER_SPANS.items():
        out[time_metric] = metric(stats.median([p[layer] for p in per_pass.values()]), n)
        out[share] = metric(
            stats.median([p[layer] / p["total"] for p in per_pass.values()]), n)

    def counter(name, scale=1.0):
        return metric(stats.median(
            [p["counters"].get(name, 0.0) * scale for p in passes]), n)

    for name, _ in COUNTERS:
        out[name] = counter(name)
    out["optimize.alloc_mwords"] = counter("optimize.alloc_words", 1e-6)
    out["qmdd.alloc_mwords"] = counter("qmdd.alloc_words", 1e-6)
    for op in ("mul", "add"):
        ratios = []
        for p in passes:
            hits = p["counters"].get(f"qmdd.{op}_hits", 0.0)
            lookups = hits + p["counters"].get(f"qmdd.{op}_misses", 0.0)
            ratios.append(hits / lookups if lookups else 0.0)
        out[f"qmdd.{op}_hit_ratio"] = metric(stats.median(ratios), n)
    # Only the table8 runs time untraced compiles of the same inputs.
    overheads = [p["traced_s"] - p["seconds"] for p in passes if "seconds" in p]
    out["trace.overhead_s"] = metric(
        stats.median(overheads) if overheads else 0.0, len(overheads))
    return out


def run_layers(args, timeout):
    try:
        proc = subprocess.run(
            [LAYERS] + [str(a) for a in args], capture_output=True, text=True,
            timeout=timeout)
    except subprocess.TimeoutExpired:
        raise Failure(f"layers.exe {args[0]} did not finish in {timeout} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise Failure(f"layers.exe {args[0]} exited {proc.returncode}:\n"
                      + proc.stderr[-2000:])
    return json.loads(lines[-1])


def load_spans(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


# --- table8-synth and table8-verify -----------------------------------


def table8(a):
    spans_path = os.path.join(OUT, f"spans-{a.workload}-{a.seed}.json")
    r = run_layers(["table8", a.workload, a.seed, a.seconds, a.trace, spans_path],
                   timeout=170)
    # The timing run's process also holds the probe's heap, so peak
    # memory comes from a pass of its own in a fresh process.
    mem = run_layers(["memory", a.workload, a.seed], timeout=120)
    passes = r["passes"]
    n = len(passes)
    per_input = {}
    for o in r["ops"]:
        per_input.setdefault(o["input"], []).append(o)
    # Per input, the median over the run's compiles of it; summed over
    # the inputs, that is one pass.
    rel = sum(stats.median([o["seconds"] / o["ref_s"] for o in v])
              for v in per_input.values())
    wall = sum(stats.median([o["seconds"] for o in v]) for v in per_input.values())
    n_ops = len(r["ops"])
    m = {
        "compile_rel": metric(rel, n_ops),
        "alloc_mwords": metric(stats.median([p["alloc_words"] for p in passes]) / 1e6, n),
        "output_cost": metric(stats.median([p["output_cost"] for p in passes]), n),
        "output_gates": metric(stats.median([p["output_gates"] for p in passes]), n),
        "peak_rss_mb": metric(mem["peak_rss_kb"] / 1024, 1),
        "setup_s": metric(stats.median(r["setup_s"]), len(r["setup_s"])),
        "wall.compile_s": metric(wall, n_ops),
        "wall.ops_per_s": metric(len(per_input) / wall, n_ops),
        "host.ref_ms": metric(stats.median([o["ref_s"] for o in r["ops"]]) * 1e3, n_ops),
    }
    if a.trace:
        m.update(layer_metrics(passes, load_spans(spans_path)))
        # No daemon runs in this workload.
        m.update({name: metric(0.0, 0) for name, _ in SERVE_LAYER})
    return m, r["attempted"], r["failed"], r["errors"] + mem["errors"]


# --- serve-mixed -------------------------------------------------------

SETUP_SAMPLES = 11
PROBES = 5


class Prober:
    """A `layers.exe probe-server` process: `probe()` is the host's speed
    now, the median seconds of PROBES runs of the reference kernel."""

    def __init__(self):
        self.proc = subprocess.Popen([LAYERS, "probe-server"], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def run(self):
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise Failure("probe server stopped")
        return float(line)

    def probe(self):
        return stats.median([self.run() for _ in range(PROBES)])

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()


def serve(a):
    keys = serve_mixed.request_keys()
    sources = {}
    for path, _, _ in keys:
        with open(path, encoding="utf-8") as f:
            sources[path] = f.read()
    sock = os.path.join(OUT, f"serve-{os.getpid()}.sock")
    deadline = time.perf_counter() + a.seconds
    min_passes = 1 if a.trace else 2
    passes = []
    # The host is probed before the first pass and after every pass; a
    # pass's host speed is the mean of the probes around it.
    prober = Prober()
    try:
        prober.run()  # The server's first run also grows its heap.
        probes = [prober.probe()]
        last_s = 0.0
        # Another pass only when it should still end within --seconds.
        while len(passes) < min_passes or time.perf_counter() + last_s <= deadline:
            t0 = time.perf_counter()
            # Each pass its own order, so that a run covers several.
            stream = serve_mixed.make_stream(f"{a.seed}/{len(passes)}", len(keys))
            passes.append(serve_mixed.run_pass(QSC, sock, stream, keys, sources))
            probes.append(prober.probe())
            last_s = time.perf_counter() - t0
    finally:
        prober.close()
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        d = serve_mixed.Daemon(QSC, sock)
        setups.append(d.setup_s)
        d.stop()

    attempted = failed = 0
    errors = []
    for p in passes:
        at, fa, er, misses = serve_mixed.check_pass(p, keys)
        attempted, failed, errors = attempted + at, failed + fa, errors + er
    # From here on, `misses` holds the last pass's miss responses.
    records = [r for p in passes for r in p["records"] if r and r["code"] == 0]
    reports = [misses[k]["report"]["optimized"] for k in sorted(misses)]
    n = len(passes)
    walls = [p["wall_s"] for p in passes]
    wall = stats.median(walls)
    m = {
        "compile_rel": metric(stats.median(
            [w / ((p0 + p1) / 2) for w, p0, p1 in zip(walls, probes, probes[1:])]), n),
        "alloc_mwords": metric(stats.median([p["alloc_words"] for p in passes]) / 1e6, n),
        "output_cost": metric(sum(o["cost"] for o in reports), len(reports)),
        "output_gates": metric(sum(o["gate_volume"] for o in reports), len(reports)),
        "peak_rss_mb": metric(stats.median([p["rss_kb"] for p in passes]) / 1024, n),
        "setup_s": metric(stats.median(setups), len(setups)),
        "wall.compile_s": metric(wall, n),
        "wall.ops_per_s": metric(len(passes[0]["records"]) / wall, n),
        "host.ref_ms": metric(stats.median(probes) * 1e3, len(probes) * PROBES),
    }
    # Client-observed latencies, from when each request was due.
    hit_lat = [r["answered"] - r["due"] for r in records if r["cached"]]
    miss_lat = [r["answered"] - r["due"] for r in records if not r["cached"]]
    m.update({
        "serve.hit_p50_ms": metric(stats.median(hit_lat) * 1e3, len(hit_lat)),
        "serve.miss_p50_ms": metric(stats.median(miss_lat) * 1e3, len(miss_lat)),
        # Over every request of the run: a tail needs many samples.
        "serve.tail_ms": tail_ms(hit_lat + miss_lat),
    })
    if a.trace:
        m.update(serve_layers(a, passes, records, keys, misses, errors))
    return m, attempted, failed, errors


def serve_layers(a, passes, records, keys, misses, errors):
    """Serve's own numbers come from the envelopes and the stats verb;
    the compile layers' numbers from the traced replica run over the
    stream's distinct requests, whose outputs must match the daemon's."""
    n = len(passes)
    st = [p["stats"] for p in passes]
    m = {
        "serve.server_ms": metric(
            sum(r["seconds"] for r in records) / len(records) * 1e3, len(records)),
        "serve.wait_ms": metric(
            sum(r["answered"] - r["due"] - r["seconds"] for r in records)
            / len(records) * 1e3, len(records)),
        "serve.hit_ratio": metric(stats.median(
            [s["cache"]["hits"] / s["cache"]["lookups"] for s in st]), n),
        "serve.shed": metric(stats.median(
            [s["overload"]["shed"] + s["overload"]["drained"]
             + s["supervision"]["watchdog_trips"] for s in st]), n),
        "loadgen.late_ms": metric(
            max(r["sent"] - r["due"] for r in records) * 1e3, len(records)),
    }
    keys_path = os.path.join(OUT, f"keys-{a.seed}.json")
    with open(keys_path, "w", encoding="utf-8") as f:
        json.dump([{"file": p, "format": fmt, "device": d} for p, fmt, d in keys], f)
    spans_path = os.path.join(OUT, f"spans-serve-mixed-{a.seed}.json")
    r = run_layers(["replica", keys_path, spans_path], timeout=120)
    errors.extend(r["errors"])
    for out in r["outputs"]:
        served = misses.get(out["key"], {}).get("report", {})
        mine = (out["gate_volume"], out["t_count"], out["cost"], out["verification"])
        theirs = (served.get("optimized", {}).get("gate_volume"),
                  served.get("optimized", {}).get("t_count"),
                  served.get("optimized", {}).get("cost"),
                  served.get("verification"))
        if mine != theirs:
            errors.append(f"{keys[out['key']]}: replica {mine} but daemon {theirs}")
    m.update(layer_metrics(r["passes"], load_spans(spans_path)))
    return m


# --- output -------------------------------------------------------------


def print_table(a, m, attempted, failed):
    print(f"perfbench {a.workload} seed {a.seed} "
          f"({'traced' if a.trace else 'untraced'})")
    print(f"  {'metric':24} {'value':>14} {'unit':7} samples")
    def row(name, unit):
        print(f"  {name:24} {m[name]['value']:14.6g} {unit:7} {m[name]['n']}")

    for name, unit in PER_LAYER if a.trace else END_TO_END:
        row(name, unit)
    print(f"  {'failed_ratio':24} {failed / attempted:14.6g} {'ratio':7} {attempted}")
    if not a.trace:
        print("  not bounded (they move with the host's speed):")
        for name, unit in WALL + CLIENT_LATENCY:
            if name in m:
                row(name, unit)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    os.chdir(ROOT)
    try:
        unit_checks()
        build()
        os.makedirs(OUT, exist_ok=True)
        runner = serve if a.workload == "serve-mixed" else table8
        m, attempted, failed, errors = runner(a)
    except (Failure, OSError, RuntimeError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    for e in errors:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    correct = not errors and failed == 0 and attempted > 0
    print_table(a, m, attempted, failed)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": m[name]["value"], "unit": unit}
                    for name, unit in (PER_LAYER if a.trace else END_TO_END)},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
