"""The two server workloads: ``serve-http`` and ``fit-service``.

Both run ``python -m repro serve`` in its own process and drive it from
this process with at most two threads and two connections.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import threading
import time

import numpy as np

from common import (BUILD_DIR, ServerProcess, digest, median, pct,
                    result_digest, self_times, union_length)

#: fixed open-loop rate of ``serve-http``: under half the baseline's
#: keep-alive capacity (2 connections x one ~44 ms stall each, ~45 rps)
OPEN_LOOP_RPS = 20.0
#: share of a ``serve-http`` run spent on the open loop; the rest is the
#: closed loop that measures throughput
OPEN_LOOP_SHARE = 0.6
#: a ``/predict`` slower than this (from when it was due) counts as failed
PREDICT_LIMIT_S = 0.5
#: held-out rows cycled through by the open loop; ``test_error`` uses them
HELD_OUT = 100
#: a fit-service job slower than this (submit to finish) counts as failed
JOB_LIMIT_S = 30.0
#: jobs per tenant that every run completes; ``test_error`` and the
#: stream digest cover exactly these
PINNED_JOBS = 6
POLL_S = 0.02
TENANTS = ("alpha", "beta")


def _wall_of(perf0: float, wall0: float):
    """Convert ``perf_counter`` readings to wall time (span ``t``)."""
    return lambda p: wall0 + (p - perf0)


def _span(name, start, end, sid, parent=None, trace=None):
    return {"name": name, "t": start, "dur": end - start, "span": sid,
            "parent": parent, "trace": trace}


def _read_sink(path: str) -> list[dict]:
    if not os.path.exists(path):
        return []
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


class _ServerWorkload:
    """Registry directory and server lifetime shared by both workloads."""

    serve_args: list[str] = []

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.seed = seed
        self.server: ServerProcess | None = None
        self.clean = True

    def _imports(self) -> None:
        import repro.native
        from repro import AutoML  # noqa: F401 - part of the timed import
        from repro.serve import ModelRegistry, ServeClient  # noqa: F401

        repro.native.native_available()
        os.makedirs(os.path.join(BUILD_DIR, "tmp"), exist_ok=True)
        self.workdir = tempfile.mkdtemp(prefix="run-", dir=BUILD_DIR)
        self.regdir = os.path.join(self.workdir, "registry")

    def _start(self, traced: bool = False) -> ServerProcess:
        sink = os.path.join(self.workdir, "spans.jsonl") if traced else None
        if sink and os.path.exists(sink):
            os.remove(sink)
        self.sink = sink
        self.server = ServerProcess(["--registry", self.regdir]
                                    + self.serve_args, trace_sink=sink)
        return self.server

    def _stop(self) -> list[dict]:
        """Stop the server; returns its spans when it was traced."""
        if self.server is not None:
            self.clean &= self.server.stop()
            self.server = None
        return _read_sink(self.sink) if self.sink else []

    def teardown(self) -> bool:
        self._stop()
        shutil.rmtree(self.workdir, ignore_errors=True)
        return self.clean


# ======================================================================
class ServeHttpWorkload(_ServerWorkload):
    """One-row ``/predict`` over persistent HTTP/1.1 connections."""

    def setup(self) -> None:
        from repro import AutoML
        from repro.data.generators import make_regression
        from repro.serve import ModelRegistry, ModelServer

        self._imports()
        ds = make_regression(4000 + HELD_OUT, 10, structure="friedman1",
                             noise=1.0, seed=self.seed, name="serve")
        X, y = ds.X[:4000], ds.y[:4000]
        self.Xt, self.yt = ds.X[4000:], ds.y[4000:]
        automl = AutoML(seed=0).fit(X, y, task="regression",
                                    time_budget=60.0, max_iters=3,
                                    estimator_list=["lgbm"])
        ModelRegistry(self.regdir).register("m", automl.export_artifact())
        self._start()
        self.model_load_ms = self._warm()
        # the in-process reference every response is checked against
        self.inproc = ModelServer(registry=ModelRegistry(self.regdir),
                                  batching=False)
        self.expected = [self.inproc.predict("m", row, single=True)
                         ["predictions"][0] for row in self.Xt]

    def _warm(self) -> float:
        """First ``/predict``: registry load plus warm-up, in ms."""
        conn = self.server.connect()
        try:
            r = self._request(conn, 0)
        finally:
            conn.close()
        if r["status"] != 200:
            raise RuntimeError(f"warm-up predict answered {r['status']}")
        return (r["end"] - r["send"]) * 1e3

    def teardown(self) -> bool:
        if getattr(self, "inproc", None) is not None:
            self.inproc.close()
        return super().teardown()

    # -- request plumbing ---------------------------------------------------
    def _request(self, conn, k: int) -> dict:
        """POST row ``k % HELD_OUT`` on ``conn``; times write and read."""
        body = json.dumps({"model": "m",
                           "row": self.Xt[k % HELD_OUT].tolist()}).encode()
        send = time.perf_counter()
        conn.request("POST", "/predict", body=body,
                     headers={"Content-Type": "application/json"})
        written = time.perf_counter()
        resp = conn.getresponse()
        data = resp.read()
        end = time.perf_counter()
        try:
            pred = json.loads(data)["predictions"][0] \
                if resp.status == 200 else None
        except (ValueError, KeyError, IndexError):
            pred = None
        return {"k": k, "send": send, "written": written, "end": end,
                "status": resp.status, "pred": pred,
                "req_id": resp.getheader("X-Request-Id")}

    def _ok(self, r: dict) -> bool:
        return r["status"] == 200 and r["pred"] == self.expected[r["k"] % HELD_OUT]

    def _open_loop(self, seconds: float) -> list[dict]:
        """Fixed-rate requests alternating over two kept-alive
        connections; each is timed from when it was due."""
        n = max(int(seconds * OPEN_LOOP_RPS), HELD_OUT)
        t0 = time.perf_counter() + 0.02
        out: list[dict | None] = [None] * n

        def sender(first: int) -> None:
            conn = self.server.connect()
            free_at = 0.0
            try:
                for k in range(first, n, 2):
                    due = t0 + k / OPEN_LOOP_RPS
                    now = time.perf_counter()
                    if now < due:
                        time.sleep(due - now)
                    r = self._request(conn, k)
                    r["due"] = due
                    # how late the generator itself ran (only meaningful
                    # when the connection was free at the due time)
                    r["gen_lag"] = r["send"] - due if free_at <= due else None
                    free_at = r["end"]
                    out[k] = r
            finally:
                conn.close()

        threads = [threading.Thread(target=sender, args=(i,)) for i in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return [r for r in out if r is not None]

    def _closed_loop(self, seconds: float) -> tuple[list[dict], float]:
        """Two keep-alive clients back to back; returns (requests, wall
        seconds).  Each request counts as due when it was sent."""
        out: list[list[dict]] = [[], []]
        stop_at = time.perf_counter() + seconds

        def client(i: int) -> None:
            conn = self.server.connect()
            k = i
            try:
                while time.perf_counter() < stop_at:
                    r = self._request(conn, k)
                    r["due"] = r["send"]
                    out[i].append(r)
                    k += 2
            finally:
                conn.close()

        t0 = time.perf_counter()
        threads = [threading.Thread(target=client, args=(i,)) for i in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return out[0] + out[1], time.perf_counter() - t0

    def _stats(self, reqs: list[dict]) -> tuple[list[float], int, bool]:
        """(latencies in ms from due, failed, every output right)."""
        lat = [(r["end"] - r["due"]) * 1e3 for r in reqs]
        wrong = sum(not self._ok(r) for r in reqs)
        failed = sum(not self._ok(r) or r["end"] - r["due"] > PREDICT_LIMIT_S
                     for r in reqs)
        return lat, failed, wrong == 0

    # -- runs -------------------------------------------------------------------
    def measure(self, seconds: float) -> dict:
        reqs = self._open_loop(seconds * OPEN_LOOP_SHARE)
        lat, failed, correct = self._stats(reqs)
        closed, wall = self._closed_loop(seconds * (1.0 - OPEN_LOOP_SHARE))
        _, closed_failed, closed_correct = self._stats(closed)
        first = {}
        for r in reqs:
            first.setdefault(r["k"] % HELD_OUT, r["pred"])
        pred = np.array([first.get(i, np.nan) for i in range(HELD_OUT)],
                        dtype=np.float64)
        ss_res = float(np.sum((self.yt - pred) ** 2))
        ss_tot = float(np.sum((self.yt - self.yt.mean()) ** 2))
        return {
            "attempted": len(reqs) + len(closed),
            "failed": failed + closed_failed,
            "correct": correct and closed_correct and len(first) == HELD_OUT,
            "digest": None,
            "metrics": {
                "op_p50_ms": median(lat),
                "ops_per_s": len(closed) / wall,
                "test_error": ss_res / ss_tot,
                "peak_rss_mb": self.server.status()["VmHWM"] / 1024.0,
            },
        }

    def measure_traced(self, seconds: float) -> dict:
        plain = self._open_loop(seconds * 0.3)
        p_lat, p_failed, p_correct = self._stats(plain)
        closed, _ = self._closed_loop(seconds * 0.2)
        keep_alive, k_failed, k_correct = self._stats(closed)
        fresh = []
        for k in range(50):
            conn = self.server.connect()
            try:
                r = self._request(conn, k)
            finally:
                conn.close()
            fresh.append((r["end"] - r["send"]) * 1e3)
        _, metrics = self.server.get_json("/metrics")
        stats = list((metrics or {}).values())
        rows, batches, sheds, requests = (
            sum(v.get(key, 0) for v in stats)
            for key in ("rows", "batches", "sheds", "requests"))
        self._stop()

        self._start(traced=True)
        self._warm()
        perf0, wall0 = time.perf_counter(), time.time()
        to_wall = _wall_of(perf0, wall0)
        traced = self._open_loop(seconds * 0.5)
        t_lat, t_failed, t_correct = self._stats(traced)
        server_spans = self._stop()

        row = self.Xt[0]
        inproc = []
        for _ in range(200):
            t0 = time.perf_counter()
            self.inproc.predict("m", row, single=True)
            inproc.append((time.perf_counter() - t0) * 1e6)

        # client spans, with each server http.request parented to the
        # client read it answered (matched by X-Request-Id)
        spans, by_req = [], {}
        for r in traced:
            k = r["k"]
            w = {key: to_wall(r[key]) for key in ("due", "send", "written", "end")}
            spans += [
                _span("bench.request", w["due"], w["end"], f"r{k}"),
                _span("bench.wait", w["due"], w["send"], f"w{k}", f"r{k}"),
                _span("bench.write", w["send"], w["written"], f"s{k}", f"r{k}"),
                _span("bench.read", w["written"], w["end"], f"g{k}", f"r{k}"),
            ]
            by_req[r["req_id"]] = f"g{k}"
        matched = []
        for sp in server_spans:
            if sp["name"] == "http.request" and sp.get("trace") in by_req:
                sp = dict(sp, parent=by_req[sp["trace"]])
                matched.append(sp)
        spans += matched
        served = {sp["parent"]: sp for sp in matched}
        coverage = [served[f"g{r['k']}"]["dur"] / (r["end"] - r["send"])
                    for r in traced if f"g{r['k']}" in served]
        lags = [r["gen_lag"] * 1e3 for r in plain + traced
                if r["gen_lag"] is not None]
        inproc_ms = median(inproc) / 1e3
        layer = {
            "op_p90_ms": pct(p_lat, 90),
            "serve.inproc_predict_us": median(inproc),
            "serve.http_overhead_ms": median(keep_alive) - inproc_ms,
            "serve.fresh_conn_ms": median(fresh),
            "serve.batch_size_mean": rows / batches if batches else 0.0,
            "serve.shed_ratio": sheds / requests if requests else 0.0,
            "serve.model_load_ms": self.model_load_ms,
            "serve.gen_lag_ms": median(lags) if lags else 0.0,
            "trace.coverage": median(coverage) if coverage else 0.0,
            "trace.overhead_ratio": median(t_lat) / median(p_lat) - 1.0,
        }
        return {
            "attempted": len(plain) + len(keep_alive) + len(traced),
            "failed": p_failed + k_failed + t_failed,
            "correct": p_correct and k_correct and t_correct and bool(matched),
            "digest": None,
            "metrics": layer,
            "table": dict(self_s=self_times(spans), n_ops=len(traced),
                          op_wall_s=median(t_lat) / 1e3),
        }


# ======================================================================
def job_population():
    """One fixed 30k-row binary population that every job samples."""
    from repro.data.generators import make_classification

    return make_classification(30_000, 10, class_sep=0.9, seed=11,
                               name="tenant-jobs")


def job_data(pop, seed: int, tenant: int, j: int):
    """A distinct task per (seed, tenant, job): 1000 rows to train and
    500 held out, drawn from ``pop``.  Distinct rows give each job its
    own dataset fingerprint, so the shared trial cache never replays a
    search; the fixed population keeps ``test_error`` comparable."""
    rows = np.random.default_rng([seed, tenant, j]).choice(
        len(pop.y), size=1500, replace=False)
    X, y = pop.X[rows], pop.y[rows]
    return X[:1000], y[:1000], X[1000:], y[1000:]


JOB_FIT = dict(task="binary", time_budget=60.0, max_iters=6,
               estimators=["lgbm"], seed=0, max_concurrent=1)


class FitServiceWorkload(_ServerWorkload):
    """Two tenants, each a closed loop of submit -> wait -> predict."""

    serve_args = ["--fit", "--fit-workers", "2"]

    def setup(self) -> None:
        self._imports()
        self.population = job_population()
        self._start()

    def _data(self, t: int, j: int):
        return job_data(self.population, self.seed, t, j)

    def _tenant_loop(self, t: int, seconds: float, out: list, rss: list,
                     done: list) -> None:
        from repro.serve import ServeClient, ServeClientError

        client = ServeClient(self.server.url, timeout=60)
        tenant = TENANTS[t]
        start = time.perf_counter()
        j = 0
        while j < PINNED_JOBS or time.perf_counter() - start < seconds:
            X, y, Xh, yh = self._data(t, j)
            rec = {"tenant": t, "j": j, "ok": False}
            out.append(rec)
            try:
                submit = time.time()
                job = client.submit_fit(tenant, "model", X, y, **JOB_FIT)
                while True:
                    st = client.fit_status(job["job_id"])
                    if st["status"] in ("done", "failed", "cancelled"):
                        break
                    if time.time() - submit > JOB_LIMIT_S * 2:
                        raise TimeoutError("fit job never finished")
                    time.sleep(POLL_S)
                noticed = time.time()
                rec.update(submit=submit, noticed=noticed, status=st["status"],
                           submitted=st["submitted_unix"],
                           started=st["started_unix"],
                           finished=st["finished_unix"],
                           trial_seconds=st["trial_seconds"],
                           result=st.get("result") or {})
                t0 = time.perf_counter()
                pred = client.predict(Xh, model=f"{tenant}.model",
                                      version=st["version"])
                rec["predict_ms"] = (time.perf_counter() - t0) * 1e3
                rec["pred"] = np.asarray(pred)
                rec["error"] = float(np.mean(rec["pred"] != yh))
                rec["ok"] = (st["status"] == "done" and
                             rec["pred"].shape == yh.shape and
                             rec["finished"] - submit <= JOB_LIMIT_S)
            except (ServeClientError, OSError, KeyError, TimeoutError) as exc:
                rec["exc"] = repr(exc)
            with self.lock:
                done[0] += 1
                status = self.server.status()
                rss.append((done[0], status.get("VmRSS", 0)))
                if done[0] == len(TENANTS) * PINNED_JOBS:
                    self.pinned_hwm_kb = status.get("VmHWM", 0)
            j += 1

    def _run_jobs(self, seconds: float) -> tuple[list[dict], list, float]:
        out: list[dict] = []
        rss: list = []
        done = [0]
        self.lock = threading.Lock()
        t0 = time.time()
        threads = [threading.Thread(target=self._tenant_loop,
                                    args=(t, seconds, out, rss, done))
                   for t in range(len(TENANTS))]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        return out, rss, time.time() - t0

    def _reference_check(self, recs: list[dict]) -> int:
        """Refit each tenant's first job in this process, serially, and
        compare winner, error, trial count and predictions with what the
        service produced; returns the number of divergent jobs."""
        from repro import AutoML

        bad = 0
        for t in range(len(TENANTS)):
            rec = next(r for r in recs if r["tenant"] == t and r["j"] == 0)
            X, y, Xh, _ = self._data(t, 0)
            automl = AutoML(seed=JOB_FIT["seed"]).fit(
                X, y, task=JOB_FIT["task"], time_budget=JOB_FIT["time_budget"],
                max_iters=JOB_FIT["max_iters"],
                estimator_list=JOB_FIT["estimators"], seed=JOB_FIT["seed"])
            res = automl.search_result
            ref = result_digest({"best_learner": res.best_learner,
                                 "best_error": float(res.best_error),
                                 "n_trials": res.n_trials})
            served = result_digest(rec.get("result") or {})
            same_pred = "pred" in rec and np.array_equal(
                np.asarray(automl.predict(Xh)), rec["pred"])
            bad += ref != served or not same_pred
        return bad

    @staticmethod
    def _pinned(recs: list[dict]) -> list[dict]:
        return sorted((r for r in recs if r["j"] < PINNED_JOBS),
                      key=lambda r: (r["tenant"], r["j"]))

    def _summary(self, recs: list[dict]) -> tuple[int, int, bool, str]:
        """(attempted, failed, correct, digest of the pinned jobs).  A job
        is wrong when it ends without a servable winner, and failed when
        wrong, over the latency limit, or divergent from the reference."""
        failed = sum(not r["ok"] for r in recs) + self._reference_check(recs)
        correct = all(r.get("status") == "done" and "pred" in r for r in recs)
        pinned = digest([result_digest(r.get("result") or {})
                         for r in self._pinned(recs)])
        return len(recs), failed, correct, pinned

    def measure(self, seconds: float) -> dict:
        recs, _, wall = self._run_jobs(seconds)
        attempted, failed, correct, pinned = self._summary(recs)
        ok = [r for r in recs if r["ok"]]
        lat = [(r["finished"] - r["submit"]) * 1e3 for r in ok]
        return {
            "attempted": attempted, "failed": failed, "correct": correct,
            "digest": pinned,
            "metrics": {
                "op_p50_ms": median(lat),
                "ops_per_s": len(ok) / wall,
                "test_error": float(np.mean(
                    [r.get("error", 1.0) for r in self._pinned(recs)])),
                # once the pinned jobs are done: retained payloads make the
                # server grow with every job, so a later high-water mark
                # would depend on speed
                "peak_rss_mb": self.pinned_hwm_kb / 1024.0,
            },
        }

    def measure_traced(self, seconds: float) -> dict:
        plain, rss, wall = self._run_jobs(seconds / 2)
        self._stop()
        self._start(traced=True)
        traced, _, _ = self._run_jobs(seconds / 2)
        server_spans = self._stop()
        attempted, failed, correct, pinned = self._summary(plain + traced)
        ok = [r for r in plain if r["ok"]]
        ok_t = [r for r in traced if r["ok"]]
        lat = [(r["finished"] - r["submit"]) * 1e3 for r in ok]
        lat_t = [(r["finished"] - r["submit"]) * 1e3 for r in ok_t]
        # RSS slope after the first quarter of the jobs (warm-up)
        tail = rss[len(rss) // 4:]
        growth = (float(np.polyfit(*zip(*tail), 1)[0])
                  if len(tail) >= 3 else 0.0)
        # two jobs run at once and trial spans carry no job id, so coverage
        # is taken over the union of the jobs' running intervals
        job_iv = [(r["started"], r["finished"]) for r in ok_t]
        program = [sp for sp in server_spans if sp["name"] != "http.request"]
        covered_s = union_length([
            (max(sp["t"], a), min(sp["t"] + sp["dur"], b))
            for a, b in job_iv for sp in program
            if sp["t"] + sp["dur"] > a and sp["t"] < b])
        cov = covered_s / union_length(job_iv) if job_iv else 0.0
        bench_spans = []
        for r in ok_t:
            root = f"j{r['tenant']}-{r['j']}"
            bench_spans += [
                _span("bench.job", r["submit"], r["noticed"], root),
                _span("bench.queue", r["submit"], r["started"], "q" + root, root),
                _span("bench.run", r["started"], r["finished"], "x" + root, root),
                _span("bench.notice", r["finished"], r["noticed"], "n" + root,
                      root),
            ]
        st = self_times(bench_spans)
        for name, sec in self_times(server_spans).items():
            st[f"server:{name}"] = sec
        layer = {
            "op_p90_ms": pct(lat, 90),
            "exec.pool_utilization":
                sum(r["trial_seconds"] for r in ok) / (wall * 2),
            "exec.cache_hit_ratio": median(
                [r["result"]["cache_hits"] / max(r["result"]["n_trials"], 1)
                 for r in ok]),
            "fitservice.queue_wait_ms": median(
                [(r["started"] - r["submitted"]) * 1e3 for r in ok]),
            "fitservice.run_ms": median(
                [(r["finished"] - r["started"]) * 1e3 for r in ok]),
            "fitservice.first_predict_ms": median([r["predict_ms"] for r in ok]),
            "fitservice.rss_growth_kb_per_job": growth,
            "fitservice.client_idle_ms": median(
                [(r["noticed"] - r["finished"]) * 1e3 for r in ok]),
            "core.trials": median([r["result"]["n_trials"] for r in ok]),
            "trace.coverage": cov,
            "trace.overhead_ratio": median(lat_t) / median(lat) - 1.0,
        }
        return {
            "attempted": attempted, "failed": failed, "correct": correct,
            "digest": pinned,
            "metrics": layer,
            "table": dict(self_s=st, n_ops=len(ok_t),
                          op_wall_s=median(lat_t) / 1e3),
        }
