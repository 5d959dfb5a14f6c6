"""serve-mixed: a seeded stream of compile requests against `qsc serve`.

One daemon per pass, started with its default settings on a Unix
socket, and one load generator: this process, with CLIENTS closed-loop
connections.  Each connection sends its next request as soon as the
previous response arrived, so a request is due at that moment; the
generator records, per request, when it was due, sent and answered,
whether it was served from the cache, and its code.

The stream holds every (file, device) pair of benchmarks/{qc,revlib,pla}
x DEVICES once, so every pass compiles the same set of cache misses
whatever the seed, plus REPEATS requests for pairs already sent, so 60%
of the requests repeat.  The seed fixes the order and which pairs
repeat.  A repeat follows its pair's first request by at least
MIN_REPEAT_GAP requests, so it is normally a plain cache read rather
than a wait for the compile in flight.
"""

import json
import os
import random
import re
import socket
import subprocess
import threading
import time

PROTOCOL = "qsynth-serve/v1"
FORMATS = {".qc": "qc", ".real": "real", ".pla": "pla"}
BENCH_DIRS = ("benchmarks/qc", "benchmarks/revlib", "benchmarks/pla")
DEVICES = ("ibmqx3", "ibmqx5", "ibmq_16")
CLIENTS = 2
REPEATS = 144
MIN_REPEAT_GAP = 2 * CLIENTS
VERIFIED = ("verified", "verified-staged", "verified-sim")
TIMEOUT_S = 60.0


def request_keys():
    """Every (path, format, device) the stream draws from, in a fixed order."""
    keys = []
    for d in BENCH_DIRS:
        for name in sorted(os.listdir(d)):
            fmt = FORMATS.get(os.path.splitext(name)[1])
            if fmt:
                keys.extend((os.path.join(d, name), fmt, dev) for dev in DEVICES)
    return keys


def make_stream(seed, n_keys):
    """Indices into the key list: each key once, plus REPEATS repeats."""
    rng = random.Random(seed)
    fresh = list(range(n_keys))
    rng.shuffle(fresh)
    stream, first_seen = [], []
    repeats = REPEATS
    while fresh or repeats:
        eligible = [k for k, pos in first_seen if pos < len(stream) - MIN_REPEAT_GAP]
        take_fresh = fresh and (
            not eligible or rng.random() < len(fresh) / (len(fresh) + repeats)
        )
        if take_fresh:
            first_seen.append((fresh[-1], len(stream)))
            stream.append(fresh.pop())
        else:
            stream.append(rng.choice(eligible))
            repeats -= 1
    return stream


def canonical(resp):
    """The envelope-free response, as bench/serve_replay.py compares it:
    a cache hit must be byte-identical to the miss that populated it."""
    body = {k: v for k, v in resp.items() if k not in ("id", "seconds", "cached")}
    return json.dumps(body, sort_keys=True)


class Conn:
    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(TIMEOUT_S)
        self.sock.connect(path)
        self.reader = self.sock.makefile("r", encoding="utf-8")

    def send(self, obj):
        self.sock.sendall((json.dumps(obj) + "\n").encode("utf-8"))

    def receive(self):
        line = self.reader.readline()
        if not line:
            raise RuntimeError("daemon closed the connection mid-request")
        return json.loads(line)

    def request(self, obj):
        self.send(obj)
        return self.receive()

    def close(self):
        self.reader.close()
        self.sock.close()


def vm_hwm_kb(pid):
    with open(f"/proc/{pid}/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


class Daemon:
    """One `qsc serve` process.  `setup_s` is the time from launch until
    it answers a ping.  The OCaml runtime prints its allocation totals
    to stderr at exit (OCAMLRUNPARAM=v=0x400); `stop` reads them."""

    def __init__(self, qsc, sock_path):
        if os.path.exists(sock_path):
            os.unlink(sock_path)
        self.path = sock_path
        env = dict(os.environ, OCAMLRUNPARAM="v=0x400")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [qsc, "serve", "--socket", sock_path],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            ready = self.proc.stdout.readline()
            if not ready.startswith(PROTOCOL):
                raise RuntimeError(f"daemon did not start: {ready!r}")
            # The readiness line comes just before the socket is bound.
            while True:
                try:
                    pong = self.request({"op": "ping"})
                    break
                except (FileNotFoundError, ConnectionRefusedError):
                    if time.perf_counter() - t0 > TIMEOUT_S:
                        raise
                    time.sleep(0.0005)
            if pong.get("code") != 0:
                raise RuntimeError(f"ping answered {pong!r}")
        except BaseException:
            self.proc.kill()
            self.proc.communicate()
            if os.path.exists(sock_path):
                os.unlink(sock_path)
            raise
        self.setup_s = time.perf_counter() - t0

    def request(self, obj):
        conn = Conn(self.path)
        try:
            return conn.request(obj)
        finally:
            conn.close()

    def stop(self):
        """Shut the daemon down; returns (peak RSS kB, allocated words)."""
        try:
            rss_kb = vm_hwm_kb(self.proc.pid)
            self.request({"op": "shutdown"})
            _, err = self.proc.communicate(timeout=TIMEOUT_S)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.communicate()
        if os.path.exists(self.path):
            os.unlink(self.path)
        m = re.search(r"^allocated_words: (\d+)", err, re.MULTILINE)
        if self.proc.returncode != 0 or not m:
            raise RuntimeError(f"daemon exited {self.proc.returncode}: {err[-500:]}")
        return rss_kb, int(m.group(1))


def run_stream(sock_path, stream, keys, sources):
    """Drive the stream through CLIENTS closed-loop connections."""
    records = [None] * len(stream)
    cursor = iter(range(len(stream)))
    cursor_lock = threading.Lock()
    failures = []

    def client():
        try:
            conn = Conn(sock_path)
        except OSError as e:
            failures.append(f"connect: {e}")
            return
        due = time.perf_counter()
        try:
            while True:
                with cursor_lock:
                    i = next(cursor, None)
                if i is None:
                    break
                path, fmt, device = keys[stream[i]]
                req = {
                    "op": "compile",
                    "id": str(i),
                    "source": sources[path],
                    "format": fmt,
                    "device": device,
                }
                sent = time.perf_counter()
                resp = conn.request(req)
                answered = time.perf_counter()
                records[i] = {
                    "key": stream[i],
                    "due": due,
                    "sent": sent,
                    "answered": answered,
                    "code": resp.get("code"),
                    "cached": resp.get("cached"),
                    "seconds": resp.get("seconds"),
                    "response": resp,
                }
                due = answered
        except (OSError, RuntimeError, ValueError) as e:
            failures.append(f"client: {e}")
        finally:
            conn.close()

    t0 = time.perf_counter()
    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return time.perf_counter() - t0, records, failures


def run_pass(qsc, sock_path, stream, keys, sources):
    """One daemon, one pass of the stream; returns the raw pass record."""
    daemon = Daemon(qsc, sock_path)
    try:
        wall, records, failures = run_stream(sock_path, stream, keys, sources)
        stats = daemon.request({"op": "stats"}).get("stats", {})
    finally:
        rss_kb, words = daemon.stop()
    return {
        "setup_s": daemon.setup_s,
        "wall_s": wall,
        "records": records,
        "failures": failures,
        "stats": stats,
        "rss_kb": rss_kb,
        "alloc_words": words,
    }


def check_pass(p, keys):
    """Correctness of one pass: every request answered with code 0,
    every miss verified, one miss per key, every hit byte-identical to
    its miss.  Returns (attempted, failed, errors, miss responses)."""
    errors = list(p["failures"])
    failed = len(p["failures"])
    misses = {}
    for r in p["records"]:
        if r is None:
            continue
        if r["code"] != 0:
            failed += 1
            errors.append(f"{keys[r['key']]}: code {r['code']}")
        elif r["cached"] is False:
            verdict = r["response"].get("report", {}).get("verification")
            if verdict not in VERIFIED:
                failed += 1
                errors.append(f"{keys[r['key']]}: miss verdict {verdict}")
            if r["key"] in misses:
                errors.append(f"{keys[r['key']]}: compiled twice")
            misses[r["key"]] = r["response"]
    for r in p["records"]:
        if r is not None and r["code"] == 0 and r["cached"] is True:
            miss = misses.get(r["key"])
            if miss is None:
                errors.append(f"{keys[r['key']]}: cache hit without a miss")
            elif canonical(r["response"]) != canonical(miss):
                errors.append(f"{keys[r['key']]}: hit differs from its miss")
    if len(misses) != len(keys):
        errors.append(f"{len(misses)} distinct misses for {len(keys)} keys")
    attempted = len(p["records"])
    return attempted, failed, errors, misses
