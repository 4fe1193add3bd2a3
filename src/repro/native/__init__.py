"""Native (C) kernels for the tree-grower hot loops, with a pure-numpy
fallback.

PR 4's profiling showed the 1-core trial ceiling is numpy *dispatch* on
small per-node arrays inside the growers, not the arithmetic itself.
This package pushes the three measured hot loops below the interpreter:

* ``build_hists`` — fused grad/hess[/count] histogram accumulation;
* ``best_split_scan`` / ``class_split_scan`` — the best-(gain, feature,
  threshold) scans of the regression and (gini) classification growers,
  with a ``picks=`` mode that scores one drawn threshold per feature and
  ``*_counts`` twins that count the valid thresholds it draws from (the
  extra-trees mode; the grower draws, the kernels take no generator);
* ``ObliviousLevelScorer`` — the CatBoost-like whole-level scoring loop.

The compiled kernels are **bitwise identical** to the numpy reference
in :mod:`repro.native.fallback` (same float64 accumulation order, same
argmax tie/NaN semantics — fuzzed by ``tests/native/``), so the golden
trial-error fixtures pass unchanged with the kernels on or off.

Dispatch
--------
``active_kernels()`` returns the compiled-kernel object when native mode
is enabled *and* the extension built, else the fallback module; growers
resolve it once per grower, never per node.  The extension is compiled
on first use (``cc`` + CPython headers, no new runtime deps) into a
per-user cache; a box without a compiler logs one warning and runs on
numpy silently thereafter.

Toggles: ``REPRO_NATIVE=0`` in the environment, or
:func:`set_native_enabled` at runtime (returns the previous setting,
for try/finally use).
"""

from __future__ import annotations

import logging
import os
import threading

from ..obs.metrics import REGISTRY
from . import fallback

__all__ = [
    "active_kernels",
    "fallback",
    "native_available",
    "native_build_error",
    "native_enabled",
    "native_status",
    "set_native_enabled",
]

_ENV_FLAG = "REPRO_NATIVE"
_log = logging.getLogger("repro.native")

_enabled = os.environ.get(_ENV_FLAG, "1").lower() not in ("0", "false", "off")
_flag_lock = threading.Lock()

#: load state: None until the first attempt; the NativeKernels object on
#: success; the attempt is made at most once per process
_kernels = None
_load_attempted = False
_load_error: str | None = None


def _load_native():
    """Build/load the extension once; returns the kernels object or None.

    Failure is a supported configuration (no compiler, no headers): it
    is logged exactly once and every later call returns None instantly,
    leaving the system on the numpy fallback.
    """
    global _kernels, _load_attempted, _load_error
    if _load_attempted:
        return _kernels
    with _flag_lock:
        if _load_attempted:
            return _kernels
        try:
            from . import _build, _native

            _kernels = _native.NativeKernels(_build.load())
        except Exception as exc:
            _load_error = f"{exc}"
            _log.warning(
                "repro.native: C kernel unavailable (%s); "
                "using the pure-numpy fallback", exc,
            )
        _load_attempted = True
    return _kernels


def native_available() -> bool:
    """Whether the compiled kernels built and loaded on this box."""
    return _load_native() is not None


def native_build_error() -> str | None:
    """Why the build failed (None if it succeeded or was never tried)."""
    _load_native()
    return _load_error


def native_enabled() -> bool:
    """Whether grower dispatch currently selects the compiled kernels."""
    return _enabled and native_available()


def set_native_enabled(on: bool) -> bool:
    """Globally enable/disable the native kernels; returns the previous
    setting.  Enabling on a box where the build failed is a no-op (the
    fallback keeps serving)."""
    global _enabled
    with _flag_lock:
        prev, _enabled = _enabled, bool(on)
    return prev


def native_status() -> dict:
    """One diagnostic dict answering "which kernels would run and why":

    ``mode`` is ``"compiled"`` or ``"fallback"``; when falling back,
    ``reason`` says whether that is policy (flag off) or circumstance
    (build failed, with the build error).  Reported by ``/health`` and
    ``python -m repro fit --verbose``.
    """
    available = native_available()
    compiled = _enabled and available
    if compiled:
        reason = None
    elif not _enabled:
        reason = f"disabled ({_ENV_FLAG}=0 or set_native_enabled(False))"
    else:
        reason = f"build failed: {_load_error}"
    return {
        "mode": "compiled" if compiled else "fallback",
        "enabled": _enabled,
        "available": available,
        "reason": reason,
    }


def active_kernels():
    """The kernels object growers should bind: compiled when enabled and
    available, else the numpy fallback module.  Called once per grower —
    per-node code never re-dispatches (which also makes the dispatch
    counter cheap: one inc per grower construction)."""
    if _enabled:
        kernels = _load_native()
        if kernels is not None:
            REGISTRY.counter(
                "repro_native_dispatch_total",
                "Grower kernel bindings, by selected implementation.",
                kernels="native",
            ).inc()
            return kernels
    REGISTRY.counter(
        "repro_native_dispatch_total",
        "Grower kernel bindings, by selected implementation.",
        kernels="fallback",
    ).inc()
    return fallback


def _reset_load_state_for_tests() -> None:
    """Forget the load attempt (build-fallback tests only)."""
    global _kernels, _load_attempted, _load_error
    with _flag_lock:
        _kernels = None
        _load_attempted = False
        _load_error = None
