"""Spans and counters recorded around the package's public functions, from outside.

The tracer never edits the package: it rebinds module attributes so that every
caller that looks a function up by name (``sampler.sample_conditioned``,
``limits.calibrate_bn`` after ``from .offspring import calibrate_bn``, ...)
reaches a wrapper that opens a span, calls the original, and updates counters.
Spans are kept in memory; self times and per-layer sums are derived at the end.

The benchmark is single-threaded, so one span stack suffices.
"""

from __future__ import annotations

import math
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

# (module, function, span name).  A span name's first component is its layer.
TRACED = [
    ("sampler", "sample_conditioned", "sampler.sample_conditioned"),
    ("codings", "height_from_tree", "codings.height_from_tree"),
    ("codings", "height_from_walk", "codings.height_from_walk"),
    ("codings", "walk_from_tree", "codings.walk_from_tree"),
    ("codings", "contour_from_tree", "codings.contour_from_tree"),
    ("codings", "visit_times", "codings.visit_times"),
    ("codings", "rescale", "codings.rescale"),
    ("stable", "density_p1", "stable.density_p1"),
    ("stable", "gamma_a", "stable.gamma_a"),
    ("stable", "first_passage_density", "stable.first_passage_density"),
    ("exactlaw", "walk_pmf", "exactlaw.walk_pmf"),
    ("exactlaw", "phi_phi_star_at", "exactlaw.phi_phi_star_at"),
    ("exactlaw", "progeny_rho", "exactlaw.progeny_rho"),
    ("exactlaw", "discrete_ratio_window", "exactlaw.discrete_ratio_window"),
    ("exactlaw", "ratio_weighted_mean", "exactlaw.ratio_weighted_mean"),
    ("exactlaw", "meander_pmf", "exactlaw.meander_pmf"),
    ("offspring", "calibrate_bn", "offspring.calibrate_bn"),
    ("offspring", "make_geometric", "offspring.make_geometric"),
    ("offspring", "make_stable_family", "offspring.make_stable_family"),
    ("limits", "run_suite", "limits.run_suite"),
    ("limits", "llt_experiment", "limits.llt"),
    ("limits", "progeny_asymptotics_experiment", "limits.progeny"),
    ("limits", "ratio_vs_gamma_experiment", "limits.ratio"),
    ("limits", "lukasiewicz_marginal_experiment", "limits.marginal"),
    ("cli", "run", "cli.run"),
]

LAYERS = ("offspring", "sampler", "codings", "exactlaw", "stable", "limits", "cli")
UNIT = "unit"  # root span around one unit of workload work; its self time is glue


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: int


class Tracer:
    """In-memory span recorder with a span stack and named counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self.maxima: Dict[str, float] = {}
        self._stack: List[int] = []
        self.op = 0

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), math.nan, parent, self.op))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of order")
        self.spans[idx].end = self.clock()

    def wrap(self, name: str, fn: Callable, before=None, after=None) -> Callable:
        """fn inside a span; ``before(args, kwargs)`` may rewrite the arguments."""

        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(self, args, kwargs)
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def note_max(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, value), value)

    # -- arithmetic over the recorded spans ------------------------------------------

    def self_times(self) -> List[float]:
        """Each span's duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        return [s.end - s.start - c for s, c in zip(self.spans, child)]

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, busy_s (outermost spans of that name only), self_s."""
        out: Dict[str, Dict[str, float]] = {}
        for s, self_s in zip(self.spans, self.self_times()):
            row = out.setdefault(s.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += self_s
            if not self._has_ancestor_named(s):
                row["busy_s"] += s.end - s.start
        return out

    def _has_ancestor_named(self, span: Span) -> bool:
        p = span.parent
        while p is not None:
            if self.spans[p].name == span.name:
                return True
            p = self.spans[p].parent
        return False


def layer_self_times(summary: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Self seconds per layer (the span name's first component) and for the glue."""
    out = {layer: 0.0 for layer in LAYERS + (UNIT,)}
    for name, row in summary.items():
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + row["self_s"]
    return out


# -- counting RNG proxy -----------------------------------------------------------------


def _rows(size, n=None) -> int:
    if size is None:
        return int(np.size(n)) if n is not None else 1
    return int(np.prod(size))


class CountingRng:
    """Forwards to a numpy Generator, counting multinomial rows and uniform draws.

    Each multinomial row is one rejection attempt, so ``size=k`` counts k.
    Everything else is forwarded unchanged, so the drawn values are exactly
    those of the wrapped generator.
    """

    def __init__(self, rng: np.random.Generator, counts: Counter):
        self._rng = rng
        self._counts = counts

    def multinomial(self, n, pvals, size=None):
        self._counts["sampler.attempts"] += _rows(size, n)
        return self._rng.multinomial(n, pvals, size)

    def random(self, size=None, *args, **kwargs):
        self._counts["sampler.tail_draws"] += _rows(size)
        return self._rng.random(size, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


# -- counters attached to the wrappers ------------------------------------------------------


def _count_rng(tracer: Tracer, args, kwargs):
    rng = kwargs.get("rng")
    if rng is not None and not isinstance(rng, CountingRng):
        kwargs = dict(kwargs, rng=CountingRng(rng, tracer.counts))
    return args, kwargs


def _array_nbytes(result) -> int:
    if isinstance(result, np.ndarray):
        return result.nbytes
    return sum(getattr(result, f).nbytes for f in ("values", "times")
               if isinstance(getattr(result, f, None), np.ndarray))


def _after_coding(tracer: Tracer, args, kwargs, result):
    tracer.counts["codings.bytes_computed"] += _array_nbytes(result)


def _after_height(tracer: Tracer, args, kwargs, result):
    tracer.counts["codings.height_passes"] += 1
    _after_coding(tracer, args, kwargs, result)


def _after_density(tracer: Tracer, args, kwargs, result):
    x = args[1] if len(args) > 1 else kwargs["x"]
    tracer.counts["stable.density_p1.points"] += int(np.size(x))


def _after_table(tracer: Tracer, args, kwargs, result):
    parts = result if isinstance(result, tuple) else (result,)
    for part in parts:
        arr = getattr(part, "masses", part)
        if isinstance(arr, np.ndarray):
            tracer.counts["exactlaw.table_entries"] += arr.size
        if hasattr(part, "truncated_mass"):
            tracer.note_max("exactlaw.truncated_mass_max", float(part.truncated_mass))


def _after_tree(tracer: Tracer, args, kwargs, result):
    tracer.counts["sampler.trees"] += 1
    tracer.counts["sampler.vertices"] += int(result.zeta)


HOOKS = {
    "sampler.sample_conditioned": (_count_rng, _after_tree),
    "codings.height_from_tree": (None, _after_height),
    "codings.height_from_walk": (None, _after_height),
    "codings.walk_from_tree": (None, _after_coding),
    "codings.contour_from_tree": (None, _after_coding),
    "codings.visit_times": (None, _after_coding),
    "codings.rescale": (None, _after_coding),
    "stable.density_p1": (None, _after_density),
    **{f"exactlaw.{f}": (None, _after_table) for f in (
        "walk_pmf", "phi_phi_star_at", "progeny_rho", "discrete_ratio_window",
        "meander_pmf")},
}


def install(tracer: Tracer) -> List[str]:
    """Rebind every traced function wherever a loaded gwtrees module holds it.

    Returns the span names installed; functions the package no longer has are
    skipped, so their counters read 0.
    """
    loaded = [m for name, m in list(sys.modules.items())
              if m is not None and (name == "gwtrees" or name.startswith("gwtrees."))]
    installed = []
    for mod_name, fn_name, span_name in TRACED:
        home = sys.modules.get(f"gwtrees.{mod_name}")
        fn = getattr(home, fn_name, None)
        if fn is None:
            continue
        before, after = HOOKS.get(span_name, (None, None))
        wrapper = tracer.wrap(span_name, fn, before, after)
        for mod in loaded:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)
        installed.append(span_name)
    return installed
