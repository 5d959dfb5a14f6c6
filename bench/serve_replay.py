#!/usr/bin/env python3
"""Replay the benchmark suite through a running `qsc serve` daemon.

Connects to the daemon's Unix socket, compiles every circuit under
benchmarks/{qc,revlib,pla} twice against one device, and checks the
serve contract end to end:

  * every response is a well-formed qsynth-serve/v1 envelope whose
    "code" obeys the exit contract (0 / 123 / 124 / 125, ok iff 0);
  * scrubbed reports are deterministic: the second pass of each
    benchmark is byte-identical to the first;
  * the content-addressed cache works: the second pass is served
    almost entirely from cache (>= 90% hits, measured via the "stats"
    verb before and after);
  * the "batch" verb maps malformed entries to the documented failure
    codes (123 reported failure / 124 protocol misuse), never 125 and
    never a dropped connection;
  * batch lanes agree with one-shot compiles: the whole suite goes out
    as one batch on a second device (ibmqx3), so every lane is a miss
    compiled on the daemon's pool, then lane by lane as one-shot
    compiles, each of which must be a cache hit whenever its lane
    produced a report, and byte-identical to its batch entry.

Usage: python3 bench/serve_replay.py SOCKET_PATH [DEVICE] [flags]

Flags (for the robustness / warm-restart CI cycles):

  --single-pass          compile the suite once and skip the
                         second-pass determinism and both batch
                         checks
  --expect-warm-hits     assert this pass was served >= 90% from cache
                         (a daemon restarted over a persistent cache
                         must answer warm)
  --save-reports FILE    write the canonical report of every benchmark
                         to FILE as JSON
  --check-reports FILE   assert every report is byte-identical to the
                         ones saved in FILE by an earlier run
  --chaos                interleave transport faults with the replay:
                         torn frames, disconnects before the response,
                         junk frames, and connection bursts; the
                         daemon must keep serving the real client

Exits 0 on success, 1 on any contract violation.  The daemon is left
running (shutdown is the caller's job, so one daemon can serve several
checks).
"""

import argparse
import json
import os
import socket
import sys

PROTOCOL = "qsynth-serve/v1"
FORMATS = {".qc": "qc", ".real": "real", ".pla": "pla", ".qasm": "qasm"}
BENCH_DIRS = ("benchmarks/qc", "benchmarks/revlib", "benchmarks/pla")

failures = 0


def fail(msg):
    global failures
    failures += 1
    print(f"FAIL: {msg}", file=sys.stderr)


class Client:
    """One line-oriented protocol connection."""

    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(120.0)
        self.sock.connect(path)
        self.reader = self.sock.makefile("r", encoding="utf-8")

    def request(self, obj):
        self.sock.sendall((json.dumps(obj) + "\n").encode("utf-8"))
        line = self.reader.readline()
        if not line:
            raise RuntimeError("connection closed mid-request")
        return json.loads(line)

    def close(self):
        self.reader.close()
        self.sock.close()


def check_envelope(resp, what):
    if resp.get("protocol") != PROTOCOL:
        fail(f"{what}: bad protocol field {resp.get('protocol')!r}")
    code = resp.get("code")
    if code not in (0, 123, 124, 125):
        fail(f"{what}: code {code!r} outside the exit contract")
    if resp.get("ok") != (code == 0):
        fail(f"{what}: ok={resp.get('ok')!r} inconsistent with code={code!r}")
    return code


def benchmark_files(root):
    files = []
    for d in BENCH_DIRS:
        full = os.path.join(root, d)
        for name in sorted(os.listdir(full)):
            ext = os.path.splitext(name)[1]
            if ext in FORMATS:
                files.append((os.path.join(full, name), FORMATS[ext]))
    return files


def get_stats(client):
    resp = client.request({"op": "stats"})
    check_envelope(resp, "stats")
    return resp["stats"]


def chaos_round(sock_path, i):
    """One round of transport mistreatment: a torn frame, a request
    dropped before its response, and a junk frame that must come back
    as a structured protocol error.  None of it may disturb the real
    replay connection."""

    def raw():
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        s.settimeout(10.0)
        s.connect(sock_path)
        return s

    # Torn frame: half a compile request, no newline, then gone.
    s = raw()
    s.sendall(b'{"op":"compile","source":"OPENQ')
    s.close()

    # Disconnect before the response: the daemon's write hits EPIPE.
    s = raw()
    s.sendall(b'{"op":"ping","id":"chaos-drop"}\n')
    s.close()

    # Junk frame on a live connection: must be answered with a
    # structured envelope (123/124), never a dropped connection.
    s = raw()
    s.sendall(f'chaos junk {i}\n'.encode("utf-8"))
    line = s.makefile("r", encoding="utf-8").readline()
    if not line:
        fail(f"chaos round {i}: junk frame closed the connection")
    else:
        code = check_envelope(json.loads(line), f"chaos round {i} junk")
        if code not in (123, 124):
            fail(f"chaos round {i}: junk frame answered {code}")
    s.close()


def chaos_burst(sock_path, n=6):
    """n pings racing the admission queue: every connection must get a
    valid envelope (an overloaded shed is valid) or a clean close."""
    socks = []
    for _ in range(n):
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        s.settimeout(10.0)
        s.connect(sock_path)
        socks.append(s)
    for s in socks:
        s.sendall(b'{"op":"ping","id":"chaos-burst"}\n')
    for i, s in enumerate(socks):
        line = s.makefile("r", encoding="utf-8").readline()
        if line:
            check_envelope(json.loads(line), f"burst client {i}")
        s.close()


def replay_pass(client, files, device, label, chaos_path=None):
    """Compile every benchmark once; return {path: canonical report}.

    With chaos_path set, every fourth benchmark is preceded by a round
    of transport faults against fresh connections."""
    reports = {}
    for idx, (path, fmt) in enumerate(files):
        if chaos_path and idx % 4 == 0:
            chaos_round(chaos_path, idx)
        if chaos_path and idx % 16 == 8:
            chaos_burst(chaos_path)
        with open(path, encoding="utf-8") as f:
            source = f.read()
        resp = client.request(
            {
                "op": "compile",
                "id": f"{label}:{os.path.basename(path)}",
                "source": source,
                "format": fmt,
                "device": device,
            }
        )
        code = check_envelope(resp, f"{label} {path}")
        # 123 (e.g. a circuit too wide for the device) is a legal
        # outcome; 124/125 on a well-formed benchmark request is not.
        if code not in (0, 123):
            fail(f"{label} {path}: unexpected code {code}")
        # Canonical, envelope-free view: cached hits must be
        # byte-identical to the miss that populated them.
        body = {k: v for k, v in resp.items() if k not in ("id", "seconds", "cached")}
        reports[path] = json.dumps(body, sort_keys=True)
    return reports


def check_malformed_batch(client):
    """Malformed entries through the batch verb: each lane must come
    back with a structured 123/124 payload and the envelope must
    aggregate to the worst lane."""
    bad = [
        {},  # no device, no source -> 123 missing field
        {"source": "qreg", "device": "no-such-device"},  # -> 124
        {"source": 42, "device": "ibmqx4"},  # wrong type -> 124
        {"source": "not qasm at all", "device": "ibmqx4"},  # -> 123 parse
        {"source": "", "device": "ibmqx4", "options": {"bogus": 1}},  # -> 124
    ]
    resp = client.request({"op": "batch", "id": "malformed", "requests": bad})
    code = check_envelope(resp, "malformed batch")
    results = resp.get("results", [])
    if len(results) != len(bad):
        fail(f"malformed batch: {len(results)} results for {len(bad)} requests")
    worst = 0
    for i, entry in enumerate(results):
        ec = entry.get("code")
        if ec not in (123, 124):
            fail(f"malformed batch entry {i}: code {ec!r}, want 123 or 124")
        if entry.get("status") != "error" or not entry.get("diagnostics"):
            fail(f"malformed batch entry {i}: missing structured diagnostics")
        worst = max(worst, ec if isinstance(ec, int) else 125)
    if code != worst:
        fail(f"malformed batch: envelope code {code} != worst lane {worst}")
    if resp.get("failed") != len(bad):
        fail(f"malformed batch: failed={resp.get('failed')}, want {len(bad)}")
    print(f"malformed batch ok: {len(bad)}/{len(bad)} structured failures")


def envelope_free(resp):
    """A response without its envelope fields and cache flag: what a
    batch entry and the one-shot compile of its lane must share."""
    skip = ("protocol", "id", "seconds", "cached")
    return json.dumps({k: v for k, v in resp.items() if k not in skip}, sort_keys=True)


def check_batch_lanes(client, files, device):
    """The suite as one batch on a device no pass has used, then each
    lane again as a one-shot compile (see the module docstring)."""
    lanes = []
    for path, fmt in files:
        with open(path, encoding="utf-8") as f:
            lanes.append({"source": f.read(), "format": fmt, "device": device})
    resp = client.request({"op": "batch", "id": "lanes", "requests": lanes})
    check_envelope(resp, "suite batch")
    results = resp.get("results", [])
    if len(results) != len(lanes):
        fail(f"suite batch: {len(results)} results for {len(lanes)} lanes")
        return
    hits = 0
    for (path, _), lane, entry in zip(files, lanes, results):
        if entry.get("code") not in (0, 123):
            fail(f"batch {path}: unexpected code {entry.get('code')}")
        if "report" in entry and entry.get("cached") is not False:
            fail(f"batch {path}: lane on a fresh device was not a miss")
        one = client.request(
            dict(lane, op="compile", id=f"lane:{os.path.basename(path)}")
        )
        check_envelope(one, f"one-shot {path}")
        if "report" in entry:
            if one.get("cached") is True:
                hits += 1
            else:
                fail(f"one-shot {path}: not served from its batch entry")
        if envelope_free(one) != envelope_free(entry):
            fail(f"{path}: one-shot response differs from its batch entry")
    print(
        f"batch lanes ok: {len(lanes)} lanes on {device}, "
        f"{hits} one-shot hits byte-identical to their entries"
    )


def main():
    ap = argparse.ArgumentParser(
        description="Replay the benchmark suite through a qsc serve daemon."
    )
    ap.add_argument("socket", help="path to the daemon's Unix socket")
    ap.add_argument("device", nargs="?", default="ibmqx5")
    ap.add_argument("--single-pass", action="store_true")
    ap.add_argument("--expect-warm-hits", action="store_true")
    ap.add_argument("--save-reports", metavar="FILE")
    ap.add_argument("--check-reports", metavar="FILE")
    ap.add_argument("--chaos", action="store_true")
    args = ap.parse_args()

    sock_path = args.socket
    device = args.device
    chaos_path = sock_path if args.chaos else None
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

    files = benchmark_files(root)
    if not files:
        fail("no benchmark files found")
        return 1
    n = len(files)

    client = Client(sock_path)
    try:
        ping = client.request({"op": "ping", "id": "replay"})
        check_envelope(ping, "ping")

        before = get_stats(client)
        first = replay_pass(client, files, device, "pass1", chaos_path)
        after_first = get_stats(client)

        if args.expect_warm_hits:
            # A daemon restarted over a persistent cache dir must serve
            # the very first pass warm, not recompile the suite.
            hits = after_first["cache"]["hits"] - before["cache"]["hits"]
            print(f"warm pass: {hits}/{n} cache hits")
            if hits < 0.9 * n:
                fail(f"warm hit rate {hits}/{n} below the 90% floor")

        if not args.single_pass:
            second = replay_pass(client, files, device, "pass2", chaos_path)
            after_second = get_stats(client)

            for path in first:
                if first[path] != second[path]:
                    fail(f"{path}: second-pass report differs from first")

            hits = after_second["cache"]["hits"] - after_first["cache"]["hits"]
            print(f"second pass: {hits}/{n} cache hits")
            if hits < 0.9 * n:
                fail(f"cache hit rate {hits}/{n} below the 90% floor")

            check_malformed_batch(client)
            batch_device = "ibmq_16" if device == "ibmqx3" else "ibmqx3"
            check_batch_lanes(client, files, batch_device)

        if args.save_reports:
            with open(args.save_reports, "w", encoding="utf-8") as f:
                json.dump(first, f)
            print(f"saved {n} canonical reports to {args.save_reports}")

        if args.check_reports:
            with open(args.check_reports, encoding="utf-8") as f:
                saved = json.load(f)
            for path in first:
                if path not in saved:
                    fail(f"{path}: missing from {args.check_reports}")
                elif first[path] != saved[path]:
                    fail(f"{path}: report differs from the saved run")
            print(f"checked {n} reports against {args.check_reports}")
    finally:
        client.close()

    if failures:
        print(f"{failures} contract violation(s)", file=sys.stderr)
        return 1
    passes = "x1" if args.single_pass else "x2"
    chaos = " under chaos" if args.chaos else ""
    print(f"serve replay ok: {n} benchmarks {passes} on {device}{chaos}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
