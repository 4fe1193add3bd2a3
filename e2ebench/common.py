"""Shared plumbing for the end-to-end benchmark: statistics, trial-log
digests, span self time, process accounting, and the server process.

Everything here measures the program from outside: it calls public
functions and endpoints and reads ``/proc``; it never patches ``src/``.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import signal
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: everything the benchmark writes lives under the checkout
BUILD_DIR = os.path.join(ROOT, ".bench_build")


# -- statistics ---------------------------------------------------------
def pct(values, q: float) -> float:
    """The ``q``-th percentile (linear interpolation) of ``values``."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return pct(values, 50.0)


# -- trial-stream pin -----------------------------------------------------
def digest(obj) -> str:
    """Short stable digest of a JSON-able object (floats by ``repr``)."""
    blob = json.dumps(obj, sort_keys=True, default=repr).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def trial_digest(trials) -> str:
    """Digest of a trial log: (learner, config, sample_size, error) per
    trial.  Equal digests mean the search ran the same trial stream."""
    return digest([[t.learner, t.config, int(t.sample_size),
                    repr(float(t.error))] for t in trials])


def result_digest(result: dict) -> str:
    """Digest of a fit-service job's public result (the service exposes
    the winner and trial count, not the trial log)."""
    return digest([repr(result.get(k))
                   for k in ("best_learner", "best_error", "n_trials")])


# -- spans ------------------------------------------------------------------
def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def _interval(span) -> tuple[float, float]:
    return span["t"], span["t"] + span["dur"]


def self_times(spans) -> dict[str, float]:
    """Seconds of self time per span name: a span's duration minus the
    part of its interval that its child spans cover."""
    children: dict[str, list] = {}
    for sp in spans:
        if sp.get("parent") is not None:
            children.setdefault(sp["parent"], []).append(sp)
    out: dict[str, float] = {}
    for sp in spans:
        s, e = _interval(sp)
        kids = [(max(s, cs), min(e, ce)) for cs, ce in
                (_interval(c) for c in children.get(sp["span"], ()))
                if ce > s and cs < e]
        out[sp["name"]] = out.get(sp["name"], 0.0) \
            + max(0.0, sp["dur"] - union_length(kids))
    return out


def covered(spans, start: float, end: float) -> float:
    """Seconds of [start, end] covered by any of ``spans``."""
    return union_length([(max(start, s), min(end, e)) for s, e in
                         (_interval(sp) for sp in spans) if e > start and s < end])


def layer_table(title: str, self_s: dict[str, float], n_ops: int,
                op_wall_s: float) -> str:
    """Per-layer self-time table: ms per op and share of the op wall."""
    lines = [f"== {title}: self time per op over {n_ops} traced op(s), "
             f"op wall {op_wall_s * 1e3:.1f} ms ==",
             f"{'span':<24}{'self ms/op':>12}{'share':>9}"]
    for name, sec in sorted(self_s.items(), key=lambda kv: -kv[1]):
        per_op = sec / max(n_ops, 1)
        share = per_op / op_wall_s if op_wall_s > 0 else 0.0
        lines.append(f"{name:<24}{per_op * 1e3:>12.2f}{share:>8.1%}")
    return "\n".join(lines)


# -- process accounting -------------------------------------------------------
def proc_status(pid: int | str = "self") -> dict[str, int]:
    """The kB fields of ``/proc/<pid>/status`` (VmHWM, VmRSS, ...)."""
    out: dict[str, int] = {}
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                key, _, rest = line.partition(":")
                parts = rest.split()
                if len(parts) == 2 and parts[1] == "kB":
                    out[key] = int(parts[0])
    except FileNotFoundError:
        pass
    return out


def child_pids(pid: int) -> list[int]:
    """Live processes whose parent is ``pid``."""
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except (FileNotFoundError, ProcessLookupError, IndexError):
            continue
        if int(fields[1]) == pid:
            out.append(int(entry))
    return out


def shm_segments() -> set[str]:
    """Names in ``/dev/shm`` (shared-memory segments of this box)."""
    try:
        return set(os.listdir("/dev/shm"))
    except FileNotFoundError:
        return set()


def bench_env(trace: bool = False) -> dict[str, str]:
    """Environment for child processes: the source tree on the path,
    caches and temp files inside the checkout, tracing as asked."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONUNBUFFERED"] = "1"
    env["REPRO_TRACE"] = "1" if trace else "0"
    env.setdefault("REPRO_NATIVE_CACHE", os.path.join(BUILD_DIR, "native"))
    env["TMPDIR"] = os.path.join(BUILD_DIR, "tmp")
    return env


# -- the server process ------------------------------------------------------
class ServerProcess:
    """``python -m repro serve`` in its own process on a free port.

    With ``trace_sink`` set, the server runs through ``traced_serve.py``
    with ``REPRO_TRACE=1`` and writes its spans to that JSONL file.
    """

    def __init__(self, serve_args: list[str], trace_sink: str | None = None,
                 start_timeout: float = 60.0) -> None:
        if trace_sink is None:
            argv = [sys.executable, "-m", "repro", "serve"]
        else:
            argv = [sys.executable, os.path.join(HERE, "traced_serve.py"),
                    trace_sink, "serve"]
        argv += serve_args + ["--host", "127.0.0.1", "--port", "0"]
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=bench_env(trace=trace_sink is not None),
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        self.pid = self.proc.pid
        self.children: list[int] = []
        try:
            line = self.proc.stdout.readline()
            if " on http://" not in line:
                raise RuntimeError(f"server did not start: {line!r}")
            hostport = line.rsplit("http://", 1)[1].strip()
            self.host, port = hostport.rsplit(":", 1)
            self.port = int(port)
            self.url = f"http://{hostport}"
            deadline = time.monotonic() + start_timeout
            while self.get_json("/health")[0] != 200:
                if time.monotonic() > deadline:
                    raise RuntimeError("server never answered /health")
                time.sleep(0.01)
        except BaseException:
            self.stop()
            raise

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=60)

    def get_json(self, path: str):
        conn = self.connect()
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read())
        except (OSError, ValueError):
            return 0, None
        finally:
            conn.close()

    def status(self) -> dict[str, int]:
        return proc_status(self.pid)

    def stop(self) -> bool:
        """Stop the server and wait for it; True if it and every child
        process it had are gone."""
        self.children = child_pids(self.pid)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        time.sleep(0.05)
        alive = [p for p in self.children if os.path.exists(f"/proc/{p}")]
        for p in alive:
            try:
                os.kill(p, signal.SIGKILL)
            except ProcessLookupError:
                pass
        return not alive
