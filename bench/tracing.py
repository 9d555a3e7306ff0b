"""Span tracing of the gframes layers, installed from outside the package.

``Tracer`` rebinds every traced public function wherever a ``gframes.*``
module namespace binds it, plus ``AlgebraElement.__post_init__`` (the
constructor) and the ``AdjointableOp.flat`` cached property (first
access only, since later reads hit the instance cache).  Each call
records one span: name, start, end, parent span and repetition id.
Spans live in flat arrays in memory and are written out once at the
end; ``restore`` puts every original binding back.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter

import numpy as np

# Traced public functions per gframes module, bottom layer first.
LAYERS = {
    "algebra": ("AlgebraElement", "is_positive", "spectral_norm", "sqrt_psd"),
    "hilbert": (
        "op_from_flat",
        "AdjointableOp.flat",
        "vector_from_flat",
        "compose",
        "adjoint_op",
        "block_diag_op",
        "identity_op",
        "is_surjective",
        "is_isometry",
        "op_norm",
    ),
    "frames": (
        "frame_operator",
        "optimal_bounds",
        "classify",
        "cross_operator",
        "synthesis_op",
        "batched_quadratic",
        "scale_family",
    ),
    "generators": ("gen_family", "gen_orthogonal_pair", "gen_isometry", "gen_weights"),
    "_rand": ("complex_gaussian", "haar_unitary", "sample_flat_vectors"),
    "sums": (
        "perturb_lambda",
        "op_weighted_sum",
        "t3_corollary_check",
        "scalar_weighted_sum",
        "t11_check",
        "tight_sum_check",
        "isometry_sum_check",
        "lambda_lower_check",
        "tight_mn_check",
        "weighted_family",
    ),
    "stability": (
        "prop_mixed_check",
        "difference_check",
        "t12_check",
        "final_corollary_check",
    ),
    "registry": ("build_and_run",),
    "serialize": ("family_from_json", "op_from_json", "weights_from_json", "report_to_json"),
    "cli": ("load_scenarios", "run_scenario", "render_json"),
}

# Repetition id of spans recorded outside any repetition (loading the
# workload's scenario files).  Functions traced there report per set-up
# instead of per repetition.
SETUP_REP = -1
PER_SETUP = ("cli.load_scenarios",)


def metric_prefix(module: str) -> str:
    """Metric names must start with a letter, so ``_rand`` reports as ``rand``."""
    return module.lstrip("_")


def span_names() -> list[str]:
    return [f"{metric_prefix(m)}.{f}" for m, funcs in LAYERS.items() for f in funcs]


class Tracer:
    """Installs span-recording wrappers; use as a context manager."""

    def __init__(self):
        self.names = span_names()
        self.rep = SETUP_REP
        self._name_ids = {name: i for i, name in enumerate(self.names)}
        self._span_name = array("i")
        self._parent = array("q")
        self._rep = array("q")
        self._start = array("q")
        self._end = array("q")
        self._current = [-1]
        self._restore = []
        # frames.spectrum_reuse: families whose spectrum was requested in
        # the current repetition (kept alive so ids stay distinct).
        self._families = []
        self.spectrum_requests = 0
        self.distinct_families = 0
        # Argument shapes behind the raw-numpy floors.
        self.bounds_shapes = Counter()
        self.compose_shapes = Counter()

    # -- hooks on selected calls ------------------------------------------

    def _note_spectrum(self, args):
        self._families.append(args[0])

    def _note_bounds(self, args):
        family = args[0]
        n = family.algebra_dim
        self._families.append(family)
        self.bounds_shapes[(n * family.source_len, n * sum(family.member_dims), family.size)] += 1

    def _note_compose(self, args):
        second, first = args[0], args[1]
        n = first.algebra_dim
        self.compose_shapes[(n * first.source_len, n * first.target_len, n * second.target_len)] += 1

    def set_rep(self, rep: int) -> None:
        """Start attributing spans to repetition ``rep``."""
        self.spectrum_requests += len(self._families)
        self.distinct_families += len({id(f) for f in self._families})
        self._families.clear()
        self.rep = rep

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name: str, func):
        nid = self._name_ids[name]
        hook = {
            "frames.optimal_bounds": self._note_bounds,
            "frames.classify": self._note_spectrum,
            "hilbert.compose": self._note_compose,
        }.get(name)
        span_name, parents, reps = self._span_name, self._parent, self._rep
        starts, ends, current = self._start, self._end, self._current
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(args)
            idx = len(starts)
            parent = current[0]
            span_name.append(nid)
            parents.append(parent)
            reps.append(tracer.rep)
            ends.append(0)
            current[0] = idx
            starts.append(clock())
            try:
                return func(*args, **kwargs)
            finally:
                ends[idx] = clock()
                current[0] = parent

        return functools.update_wrapper(wrapper, func)

    def install(self) -> None:
        from gframes.algebra import AlgebraElement
        from gframes.hilbert import AdjointableOp

        # A function the package no longer defines in the traced form is
        # skipped and reports zero calls, so the trace survives refactors.
        by_id = {}
        for module, funcs in LAYERS.items():
            mod = importlib.import_module(f"gframes.{module}")
            prefix = metric_prefix(module)
            for func in funcs:
                name = f"{prefix}.{func}"
                if func == "AlgebraElement":
                    original = AlgebraElement.__dict__.get("__post_init__")
                    if original is not None:
                        self._restore.append((AlgebraElement, "__post_init__", original))
                        AlgebraElement.__post_init__ = self._wrap(name, original)
                elif func == "AdjointableOp.flat":
                    original = AdjointableOp.__dict__.get("flat")
                    if isinstance(original, functools.cached_property):
                        prop = functools.cached_property(self._wrap(name, original.func))
                        prop.__set_name__(AdjointableOp, "flat")
                        self._restore.append((AdjointableOp, "flat", original))
                        AdjointableOp.flat = prop
                else:
                    original = getattr(mod, func, None)
                    if callable(original):
                        by_id[id(original)] = (original, self._wrap(name, original))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "gframes" and not mod_name.startswith("gframes."):
                continue
            for attr, value in list(vars(mod).items()):
                entry = by_id.get(id(value))
                if entry is not None and entry[0] is value:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, entry[1])

    def restore(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        self.set_rep(SETUP_REP)
        return False

    # -- results -----------------------------------------------------------

    def spans(self) -> dict:
        """Recorded spans as arrays, with self time per span in ns."""
        start = np.array(self._start, dtype=np.int64)
        end = np.array(self._end, dtype=np.int64)
        parent = np.array(self._parent, dtype=np.int64)
        duration = end - start
        child = np.zeros_like(duration)
        nested = parent >= 0
        np.add.at(child, parent[nested], duration[nested])
        return {
            "name": np.array(self._span_name, dtype=np.int32),
            "start_ns": start,
            "end_ns": end,
            "parent": parent,
            "rep": np.array(self._rep, dtype=np.int64),
            "duration_ns": duration,
            "self_ns": duration - child,
        }

    def save(self, path: str, spans: dict) -> None:
        """Write the recorded spans (as returned by ``spans``) to an .npz file."""
        keep = ("name", "start_ns", "end_ns", "parent", "rep")
        np.savez(path, names=np.array(self.names), **{k: spans[k] for k in keep})


def layer_metrics(tracer: Tracer, spans: dict, reps: int, traced_wall_s: float,
                  untraced_wall_s: float, floors: dict) -> dict:
    """Per-layer metrics of a finished traced run; ``spans`` is ``tracer.spans()``.

    ``floors`` maps a span name to its raw-numpy floor in seconds per
    call; its ratio compares the span's inclusive time per call, because
    the floor's math includes the traced children (``frame_operator``
    under ``optimal_bounds``, ``op_from_flat`` under ``compose``).
    """
    size = len(tracer.names)
    in_rep = spans["rep"] >= 0
    in_setup = ~in_rep
    counts = np.bincount(spans["name"][in_rep], minlength=size)
    self_ns = np.bincount(spans["name"][in_rep], weights=spans["self_ns"][in_rep], minlength=size)
    incl_ns = np.bincount(spans["name"][in_rep], weights=spans["duration_ns"][in_rep], minlength=size)
    setup_counts = np.bincount(spans["name"][in_setup], minlength=size)
    setup_self_ns = np.bincount(spans["name"][in_setup], weights=spans["self_ns"][in_setup],
                                minlength=size)

    out = {}
    for i, name in enumerate(tracer.names):
        if name in PER_SETUP:
            out[f"{name}.calls"] = (float(setup_counts[i]), "count")
            out[f"{name}.self_ms"] = (setup_self_ns[i] / 1e6, "ms")
        else:
            out[f"{name}.calls"] = (counts[i] / reps, "count")
            out[f"{name}.self_ms"] = (self_ns[i] / 1e6 / reps, "ms")
    for module in LAYERS:
        prefix = metric_prefix(module)
        ids = [i for i, name in enumerate(tracer.names) if name.startswith(prefix + ".")]
        out[f"{prefix}.share"] = (self_ns[ids].sum() / 1e9 / traced_wall_s, "ratio")
    out["frames.spectrum_reuse"] = (
        tracer.distinct_families / max(tracer.spectrum_requests, 1), "ratio")
    for name, floor_s in floors.items():
        i = tracer.names.index(name)
        ratio = incl_ns[i] / 1e9 / counts[i] / floor_s if counts[i] else 0.0
        out[f"{name}.floor_ratio"] = (ratio, "ratio")
    out["trace.overhead_frac"] = (traced_wall_s / untraced_wall_s - 1.0, "ratio")
    return {k: (float(v), unit) for k, (v, unit) in out.items()}
