"""End-to-end and per-layer benchmark of the AutoML library.

    python3 e2ebench/run.py --workload fit-cv --seed 0 --seconds 25 --trace 0

Run from the root of a checkout.  ``--trace 0`` prints the end-to-end
metrics of an untraced run; ``--trace 1`` prints the per-layer metrics
and a self-time table of a traced run.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  See README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

from common import (BUILD_DIR, SRC, bench_env, layer_table, median,
                    shm_segments)

WORKLOADS = ("fit-cv", "fit-large", "serve-http", "fit-service")
#: set-up is timed this many times in fresh processes; the median counts
SETUP_REPS = 3


def declared_metrics() -> tuple[dict[str, str], dict[str, str]]:
    """(end-to-end, per-layer) metric name -> unit, from BENCHMARK.json."""
    with open(os.path.join(os.path.dirname(SRC), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def make_workload(name: str, seed: int):
    if name in ("fit-cv", "fit-large"):
        from fitload import FitWorkload

        return FitWorkload(name, seed)
    from serveload import FitServiceWorkload, ServeHttpWorkload

    cls = ServeHttpWorkload if name == "serve-http" else FitServiceWorkload
    return cls(name, seed)


def build() -> None:
    """Compile the native kernels and byte-code once, outside any timing."""
    subprocess.run(
        [sys.executable, "-c", "import repro.native, repro.serve, repro.cli; "
                               "repro.native.native_available()"],
        cwd=os.path.dirname(SRC), env=bench_env(), check=True, timeout=850,
    )


def time_setup(args) -> float:
    """Wall seconds of one set-up in a fresh interpreter."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload",
            args.workload, "--seed", str(args.seed), "--setup-probe"]
    t0 = time.perf_counter()
    subprocess.run(argv, cwd=os.path.dirname(SRC), env=bench_env(),
                   check=True, timeout=120, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no source tree at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    os.makedirs(os.path.join(BUILD_DIR, "tmp"), exist_ok=True)
    os.environ.update({k: v for k, v in bench_env().items()
                       if k.startswith("REPRO_") or k == "TMPDIR"})
    sys.path.insert(0, SRC)

    if args.setup_probe:
        wl = make_workload(args.workload, args.seed)
        wl.setup()
        return 0 if wl.teardown() else 1

    build()
    shm_before = shm_segments()
    setup_s = median([time_setup(args) for _ in range(SETUP_REPS)])

    wl = make_workload(args.workload, args.seed)
    try:
        wl.setup()
        res = (wl.measure_traced if args.trace else wl.measure)(args.seconds)
    finally:
        clean = wl.teardown()
    leaked = shm_segments() - shm_before
    # the clean-up check is one more op: a leftover server process or a
    # new shared-memory segment fails it
    attempted = res["attempted"] + 1
    failed = res["failed"] + (not clean or bool(leaked))

    end_to_end, per_layer = declared_metrics()
    if args.trace:
        names, values = per_layer, res["metrics"]
        print(layer_table(args.workload, **res["table"]))
    else:
        names = end_to_end
        values = dict(res["metrics"], setup_s=setup_s,
                      ok_ratio=(attempted - failed) / attempted)
    if res.get("digest"):
        print(f"trial-stream digest {args.workload} seed={args.seed}: "
              f"{res['digest']}")
    print(json.dumps({
        "correct": bool(res["correct"]),
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": float(values.get(n, 0.0)), "unit": u}
                    for n, u in names.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
