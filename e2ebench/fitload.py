"""The two in-process fit workloads: ``fit-cv`` and ``fit-large``.

One op is one ``AutoML.fit`` on a closed loop with one client.  Every
fit runs serially with ``AutoML(seed=0)``, so its trial stream is a pure
function of the data: ``fit-cv`` selects learners round-robin (ECI would
feed measured cost back into the choice) and ``fit-large`` searches one
learner, whose sample-size ladder stays identical when run serially.
The benchmark's ``--seed`` only picks the data.
"""

from __future__ import annotations

import time

import numpy as np

from common import (covered, median, pct, proc_status, self_times,
                    trial_digest)

LEARNERS = ("lgbm", "xgboost", "extra_tree", "rf", "catboost", "lrl1")
TRIAL_PHASES = ("bin", "construct", "fit", "score", "metric")
#: an op slower than this counts as failed
LATENCY_LIMIT_S = 120.0
MIN_OPS = 3
#: a run never starts a new op after this many seconds
HARD_STOP_S = 110.0


def _credit_g_like(seed: int):
    """The ``credit-g`` stand-in (1000 x 20, half categorical, binary).

    The rows come from one fixed 5000-row population with the suite's
    credit-g generator settings; the seed picks which 1000 rows train
    and the other 4000 are the held-out test set.  A fixed population
    keeps the task's difficulty, and so ``test_error``, comparable
    across seeds.
    """
    from repro.data.generators import make_classification

    pop = make_classification(5000, 20, cat_frac=0.5, class_sep=0.7,
                              imbalance=0.4, seed=103, name="credit-g")
    order = np.random.default_rng(seed).permutation(5000)
    tr, te = order[:1000], order[1000:]
    return pop.X[tr], pop.y[tr], pop.X[te], pop.y[te]


def _friedman_large(seed: int):
    """100k x 12 friedman1 regression plus a 10k held-out set: above the
    binned plane's 50k exact-row limit and at the paper's n >= 100k
    holdout rule."""
    from repro.data.generators import make_regression

    ds = make_regression(110_000, 12, structure="friedman1", noise=1.0,
                         seed=seed, name="friedman1-100k")
    return ds.X[:100_000], ds.y[:100_000], ds.X[100_000:], ds.y[100_000:]


SPECS = {
    "fit-cv": dict(
        data=_credit_g_like,
        # one trial per learner: each learner's low-cost initial config;
        # ~2 s per fit gives a run a dozen fits to take the median of
        fit=dict(task="binary", time_budget=600.0, max_iters=6,
                 learner_selection="roundrobin"),
    ),
    "fit-large": dict(
        data=_friedman_large,
        # 10 trials up the ladder from 10k rows.  Every sample-size
        # decision up to here clears ECI1-vs-ECI2 by >= 1.25x; at 200k
        # rows the 14th trial's decision sat within 10-16% of a tie and
        # flipped under CPU noise (see README.md)
        fit=dict(task="regression", time_budget=600.0, max_iters=10,
                 estimator_list=["lgbm"]),
    ),
}


class FitWorkload:
    """Closed loop of ``AutoML.fit`` calls on one generated dataset."""

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.seed = seed
        self.spec = SPECS[name]

    def setup(self) -> None:
        import repro.native
        from repro import AutoML  # noqa: F401 - part of the timed import

        repro.native.native_available()
        self.X, self.y, self.Xt, self.yt = self.spec["data"](self.seed)

    def teardown(self) -> bool:
        return True

    # -- one op ------------------------------------------------------------
    def _op(self, traced: bool) -> dict:
        from repro import AutoML
        from repro.obs.trace import (clear_spans, set_tracing,
                                     snapshot_spans, trace_span)

        if traced:
            clear_spans()
            set_tracing(True)
        try:
            automl = AutoML(seed=0)
            t0 = time.perf_counter()
            with trace_span("bench.fit"):
                automl.fit(self.X, self.y, **self.spec["fit"])
            wall = time.perf_counter() - t0
            with trace_span("bench.score"):
                err = float(automl.score(self.Xt, self.yt))
        finally:
            if traced:
                set_tracing(False)
        res = automl.search_result
        op = {
            "wall": wall,
            "error": err,
            "digest": trial_digest(res.trials),
            "winner": res.best_learner,
            "failed_trials": len(res.failures),
            "search": res.wall_time,
            "trial_cost": sum(t.cost for t in res.trials),
            "trials": res.n_trials,
            "cache_hits": res.cache_hits,
            "retried": sum(t.attempts - 1 for t in res.trials),
            "by_learner": {ln: sum(t.cost for t in res.trials
                                   if t.learner == ln) for ln in LEARNERS},
        }
        if traced:
            op["spans"] = snapshot_spans()
            clear_spans()
        status = proc_status()
        op["rss_kb"], op["hwm_kb"] = status["VmRSS"], status["VmHWM"]
        return op

    def _loop(self, seconds: float, alternate: bool = False) -> list[dict]:
        """Run ops for ``seconds`` and at least ``MIN_OPS``; with
        ``alternate``, every second op is traced (at least two each)."""
        ops: list[dict] = []
        min_ops = 4 if alternate else MIN_OPS
        start = time.perf_counter()
        while len(ops) < min_ops or time.perf_counter() - start < seconds:
            if time.perf_counter() - start >= HARD_STOP_S:
                break
            ops.append(self._op(traced=alternate and len(ops) % 2 == 1))
        return ops

    def _check(self, ops: list[dict]) -> tuple[int, int, bool]:
        """(attempted, failed, correct).  An op is wrong without a winner
        or with a crashed trial, and failed when wrong, over the latency
        limit, or off the first op's trial stream and test error."""
        ref = ops[0]
        failed, wrong = 0, 0
        for op in ops:
            bad = op["winner"] is None or op["failed_trials"] > 0
            diverged = (op["digest"] != ref["digest"]
                        or op["error"] != ref["error"])
            wrong += bad
            failed += bad or diverged or op["wall"] > LATENCY_LIMIT_S
        return len(ops), failed, wrong == 0

    # -- the two kinds of run ---------------------------------------------
    def measure(self, seconds: float) -> dict:
        ops = self._loop(seconds)
        attempted, failed, correct = self._check(ops)
        walls_ms = [o["wall"] * 1e3 for o in ops]
        return {
            "attempted": attempted, "failed": failed, "correct": correct,
            "digest": ops[0]["digest"],
            "metrics": {
                "op_p50_ms": median(walls_ms),
                "ops_per_s": len(ops) / sum(o["wall"] for o in ops),
                "test_error": ops[0]["error"],
                # after a fixed number of fits: memory grows with every
                # fit, so a later high-water mark would depend on speed
                "peak_rss_mb": ops[MIN_OPS - 1]["hwm_kb"] / 1024.0,
            },
        }

    def measure_traced(self, seconds: float) -> dict:
        ops = self._loop(seconds, alternate=True)
        attempted, failed, correct = self._check(ops)
        plain = [o for o in ops if "spans" not in o]
        traced = [o for o in ops if "spans" in o]
        layer = {
            "op_p90_ms": pct([o["wall"] * 1e3 for o in plain], 90),
            "core.search_ms": median([o["search"] * 1e3 for o in plain]),
            "core.outside_search_ms": median(
                [(o["wall"] - o["search"]) * 1e3 for o in plain]),
            "core.orchestration_ms": median(
                [(o["search"] - o["trial_cost"]) * 1e3 for o in plain]),
            "core.trials": median([o["trials"] for o in plain]),
            "exec.cache_hit_ratio": median(
                [o["cache_hits"] / max(o["trials"], 1) for o in plain]),
            "exec.retried_trials": median([o["retried"] for o in plain]),
            "core.rss_growth_kb_per_fit": float(np.polyfit(
                range(len(ops) - 1), [o["rss_kb"] for o in ops[1:]], 1)[0]),
        }
        for ln in LEARNERS:
            layer[f"learners.{ln}.trial_ms"] = median(
                [o["by_learner"][ln] * 1e3 for o in plain])

        per_op_self, coverage = [], []
        for o in traced:
            st = self_times(o["spans"])
            per_op_self.append(st)
            root = next(s for s in o["spans"] if s["name"] == "bench.fit")
            program = [s for s in o["spans"]
                       if not s["name"].startswith("bench.")]
            start, end = root["t"], root["t"] + root["dur"]
            coverage.append(covered(program, start, end) / root["dur"])
        for ph in TRIAL_PHASES:
            layer[f"trial.{ph}_ms"] = median(
                [st.get(f"trial.{ph}", 0.0) * 1e3 for st in per_op_self])
        layer["data.plane_ms"] = median(
            [sum(v for k, v in st.items() if k.startswith("plane."))
             * 1e3 for st in per_op_self])
        layer["trace.coverage"] = median(coverage)
        layer["trace.overhead_ratio"] = (
            median([o["wall"] for o in traced])
            / median([o["wall"] for o in plain]) - 1.0)

        totals: dict[str, float] = {}
        for st in per_op_self:
            for k, v in st.items():
                totals[k] = totals.get(k, 0.0) + v
        return {
            "attempted": attempted, "failed": failed, "correct": correct,
            "digest": ops[0]["digest"],
            "metrics": layer,
            "table": dict(self_s=totals, n_ops=len(traced),
                          op_wall_s=median([o["wall"] for o in traced])),
        }
