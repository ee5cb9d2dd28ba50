"""Per-layer spans around coble's public functions, installed from outside.

``Tracer.install`` wraps every public function and every public method of
each layer module (the package modules listed in ``LAYERS``) and puts the
wrapper into every ``coble`` namespace that binds the original, including
dict tables such as ``constructions.BUILDERS``.  ``uninstall`` puts the
originals back.

A span opens when a call enters a layer from outside it; calls nested in
the same layer are folded into the open span.  A layer's self time is its
spans' time minus the time of the spans of other layers opened inside
them.  ``calls`` counts spans and ``errors`` the spans that raised.  Hooks
add the per-layer work counters; their own time is charged to no layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import sys
import time
from collections import Counter

LAYERS = (
    "lattice", "config", "fibers", "blowup", "cremona",
    "negcurves", "classify", "constructions", "catalog", "cli",
)

# Above this many decompositions coble.config scans with numpy.  The benchmark
# reads no private name for it; ``check_numpy_scan_threshold`` tests it.
NUMPY_SCAN_ABOVE = 4096


def _uses_numpy(fn) -> bool:
    """Whether ``fn()`` calls into numpy, seen by a profile hook."""
    numpy_dir = os.path.dirname(importlib.import_module("numpy").__file__)
    seen = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(numpy_dir):
            seen.append(True)
        elif event == "c_call" and (getattr(arg, "__module__", None) or "").startswith("numpy"):
            seen.append(True)

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return bool(seen)


def check_numpy_scan_threshold() -> None:
    """Fail unless coble.config scans a box of ``NUMPY_SCAN_ABOVE``
    decompositions without numpy and a box of one more with it.

    ``config.numpy_share`` and the fiber-config strata rest on that switch
    point, so a change to it must not go unnoticed.
    """
    config = importlib.import_module("coble.config")
    cfg = config.config_from_json({"nodes": [{"id": "A", "self": -2}, {"id": "B", "self": -2}],
                                   "edges": [{"a": "A", "b": "B", "count": 2}]})
    # (15 + 1)(255 + 1) = 4096 and (16 + 1)(240 + 1) = 4097 decompositions
    at = _uses_numpy(lambda: config.is_numerically_k_connected(cfg, {"A": 15, "B": 255}, 1))
    above = _uses_numpy(lambda: config.is_numerically_k_connected(cfg, {"A": 16, "B": 240}, 1))
    if at or not above:
        raise RuntimeError(
            f"coble.config no longer switches to numpy above {NUMPY_SCAN_ABOVE} decompositions; "
            "update NUMPY_SCAN_ABOVE in perfbench/spans.py"
        )


def _box(cfg, subset) -> int:
    """Number of decompositions prod(m_i + 1) of a sub-divisor, from the input."""
    if subset is None:
        mults = [n.mult for n in cfg.nodes]
    elif isinstance(subset, dict):
        mults = list(subset.values())
    else:
        by_id = {n.id: n.mult for n in cfg.nodes}
        mults = [by_id[i] for i in subset]
    return math.prod(m + 1 for m in mults if m > 0)


def _scan_hook(counts, args, kwargs, result):
    box = _box(args[0], args[1] if len(args) > 1 else kwargs.get("subset"))
    counts["config.scans"] += 1
    counts["config.decomp_box"] += box
    counts["config.numpy_scans"] += box > NUMPY_SCAN_ABOVE


def _pa_hook(counts, args, kwargs, result):
    counts["config.pa_calls"] += 1
    counts["config.undetermined"] += result is sys.modules["coble.config"].UNDETERMINED


def _recognize_hook(counts, args, kwargs, result):
    counts["fibers.recognitions"] += 1
    counts["fibers.matched"] += result is not None


def _adder(name, amount=lambda result: 1):
    def hook(counts, args, kwargs, result):
        counts[name] += amount(result)
    return hook


HOOKS = {
    ("lattice", "pair"): _adder("lattice.pair_calls"),
    ("lattice", "make_lattice"): _adder("lattice.make_lattice_calls"),
    ("negcurves", "enumerate_negative_classes"): _adder("negcurves.classes", len),
    ("negcurves", "exceptional_pairing_growth"): _adder(
        "negcurves.identity_pairs", lambda rows: sum(r.class_count ** 2 for r in rows)
    ),
    ("config", "is_numerically_k_connected"): _scan_hook,
    ("config", "divisor_pa"): _pa_hook,
    ("fibers", "kodaira_fiber"): _adder("fibers.models_built"),
    ("fibers", "recognize_fiber"): _recognize_hook,
    ("cremona", "noether_reduce"): _adder("cremona.steps", lambda r: len(r.steps)),
    ("classify", "match_rational_case"): _adder("classify.rows", lambda r: len(r.constraint_log)),
    ("catalog", "verify_example"): _adder("catalog.claims", lambda r: len(r.results)),
}


class Tracer:
    def __init__(self):
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.errors = dict.fromkeys(LAYERS, 0)
        self.counts = Counter()
        self._stack = []  # open spans: [layer, time spent in child spans]
        self._undo = []

    def _wrap(self, layer, fn):
        hook = HOOKS.get((layer, fn.__qualname__))
        stack, clock = self._stack, time.perf_counter
        counts, self_s, calls, errors = self.counts, self.self_s, self.calls, self.errors

        def run_hook(args, kwargs, result):
            t0 = clock()
            hook(counts, args, kwargs, result)
            if stack:
                stack[-1][1] += clock() - t0

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                result = fn(*args, **kwargs)
            else:
                frame = [layer, 0.0]
                stack.append(frame)
                calls[layer] += 1
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    errors[layer] += 1
                    raise
                finally:
                    elapsed = clock() - t0
                    stack.pop()
                    self_s[layer] += elapsed - frame[1]
                    if stack:
                        stack[-1][1] += elapsed
            if hook is not None:
                run_hook(args, kwargs, result)
            return result

        return span

    def install(self) -> None:
        wrapped = {}
        for layer in LAYERS:
            module = importlib.import_module(f"coble.{layer}")
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self._wrap(layer, obj)
                elif inspect.isclass(obj):
                    for attr, fn in list(vars(obj).items()):
                        if not attr.startswith("_") and inspect.isfunction(fn):
                            self._set(obj, attr, fn, self._wrap(layer, fn))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "coble" and not mod_name.startswith("coble."):
                continue
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._set(module, name, value, wrapped[value])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if inspect.isfunction(item) and item in wrapped:
                            value[key] = wrapped[item]
                            self._undo.append((value.__setitem__, key, item))

    def _set(self, owner, name, original, replacement):
        setattr(owner, name, replacement)
        self._undo.append((functools.partial(setattr, owner), name, original))

    def uninstall(self) -> None:
        for put, name, original in reversed(self._undo):
            put(name, original)
        self._undo.clear()
