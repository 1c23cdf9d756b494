"""Span recording around biopoly's public functions, from outside the library.

``install`` replaces each traced public function with a wrapper that
records a span (layer, start, end, parent, request id, counts).  The
wrapper is put in place of the original everywhere a ``biopoly`` module
holds a reference to it, so names that ``regress``, ``demos`` and ``cli``
import from ``biorth``, ``exact`` and ``baseline`` nest under the caller's
span.  Spans stay in memory; ``Recorder.dump`` writes them at the end.

Counts derived from arguments or results (rows, points, bit sizes) are
computed inside a ``trace.bookkeeping`` span that is a sibling of the
traced call, so the cost of counting is subtracted from the caller's self
time instead of being billed to any library layer.
"""

from __future__ import annotations

import dataclasses
import enum
import inspect
import json
import sys
import time
from fractions import Fraction

BOOKKEEPING = "trace.bookkeeping"
REQUEST = "request"

#: per-layer metric names, in report order (units are fixed by the suffix)
PER_LAYER = [
    ("regress.moments_from_samples.self_s", "s"),
    ("regress.moments_from_samples.calls", "count"),
    ("regress.moments_from_samples.point_moments", "count"),
    ("regress.moments_quadrature.self_s", "s"),
    ("regress.moments_closed_form.self_s", "s"),
    ("biorth.build.self_s", "s"),
    ("biorth.build.calls", "count"),
    ("biorth.build.rows", "count"),
    ("biorth.repeat_build_frac", "ratio"),
    ("biorth.select_removal.self_s", "s"),
    ("biorth.select_removal.calls", "count"),
    ("biorth.downgrade.self_s", "s"),
    ("biorth.downgrade.calls", "count"),
    ("regress.fit.projects_per_fit", "count"),
    ("biorth.project.self_s", "s"),
    ("biorth.project.calls", "count"),
    ("biorth.upgrade.self_s", "s"),
    ("biorth.upgrade.calls", "count"),
    ("biorth.max_bits", "bits"),
    ("regress.fit.self_s", "s"),
    ("regress.fit.calls", "count"),
    ("regress.eval.self_s", "s"),
    ("regress.eval.points", "count"),
    ("exact.horner_many.self_s", "s"),
    ("exact.horner_many.point_terms", "count"),
    ("regress.diagnostics.self_s", "s"),
    ("baseline.self_s", "s"),
    ("demos.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.interpreter_s", "s"),
    ("cli.bytes_written", "bytes"),
    ("cli.rejected", "count"),
    ("trace.throughput_rps", "1/s"),
]

#: metrics that count work: two traced runs on one seed must agree exactly
EXACT_COUNTS = [name for name, unit in PER_LAYER
                if unit in ("count", "bits", "bytes", "ratio")]


def max_bits(obj) -> int:
    """Largest numerator or denominator bit length of any rational in obj.

    Walks dataclass fields, mappings and sequences, so it works on any
    representation of a biorthogonal set that keeps its rationals in
    plain containers.
    """
    best = 0
    stack = [obj]
    seen = set()
    while stack:
        o = stack.pop()
        if isinstance(o, Fraction):
            best = max(best, o.numerator.bit_length(), o.denominator.bit_length())
        elif isinstance(o, int):
            best = max(best, o.bit_length())
        elif isinstance(o, (str, bytes, float, enum.Enum)) or o is None:
            continue
        elif id(o) in seen:
            continue
        else:
            seen.add(id(o))
            if isinstance(o, dict):
                stack.extend(o.keys())
                stack.extend(o.values())
            elif isinstance(o, (list, tuple, set, frozenset)):
                stack.extend(o)
            elif dataclasses.is_dataclass(o):
                stack.extend(getattr(o, f.name) for f in dataclasses.fields(o))
    return best


class Recorder:
    """In-memory span store with a stack of open spans."""

    def __init__(self):
        self.spans = []          # [layer, start, end, parent, request, counts]
        self.stack = []
        self.request = None
        self.built = set()       # (family, k) pairs built in this process

    def open(self, layer: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([layer, time.perf_counter(), None, parent,
                           self.request, None])
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, fn, layer: str, counter=None):
        sig = inspect.signature(fn) if counter else None

        def traced(*args, **kwargs):
            idx = self.open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if counter is not None:
                book = self.open(BOOKKEEPING)
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    self.spans[idx][5] = counter(self, bound.arguments, result)
                finally:
                    self.close(book)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", layer)
        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


# ----------------------------------------------------------------------
# counters: (recorder, bound arguments, result) -> dict of counts
# ----------------------------------------------------------------------

def _count_samples(rec, a, result):
    return {"point_moments": len(a["samples"]) * (int(a["k"]) + 1)}


def _count_build(rec, a, result):
    key = (repr(a["fam"]), int(a["k"]))
    repeat = key in rec.built
    rec.built.add(key)
    return {"rows": int(a["k"]) + 1, "repeat": int(repeat),
            "max_bits": max_bits(result)}


def _count_upgrade(rec, a, result):
    return {"max_bits": max_bits(result)}


def _count_eval(rec, a, result):
    return {"points": int(getattr(result, "size", 1))}


def _count_horner(rec, a, result):
    return {"point_terms": int(getattr(result, "size", 1)) * len(a["coeffs"])}


def _traced_functions():
    """(module, attribute, layer, counter) for every traced public name."""
    from biopoly import baseline, biorth, cli, demos, exact, regress
    return [
        (regress, "moments_from_samples", "regress.moments_from_samples", _count_samples),
        (regress, "moments_quadrature", "regress.moments_quadrature", None),
        (regress, "moments_expdecay", "regress.moments_closed_form", None),
        (regress, "moments_gamma", "regress.moments_closed_form", None),
        (regress, "fit", "regress.fit", None),
        (regress, "l2_error", "regress.diagnostics", None),
        (regress, "rms_error", "regress.diagnostics", None),
        (regress, "max_abs_error", "regress.diagnostics", None),
        (regress, "bic_score", "regress.diagnostics", None),
        (biorth, "build", "biorth.build", _count_build),
        (biorth, "upgrade", "biorth.upgrade", _count_upgrade),
        (biorth, "downgrade", "biorth.downgrade", None),
        (biorth, "project", "biorth.project", None),
        (biorth, "select_removal", "biorth.select_removal", None),
        (exact, "horner_many", "exact.horner_many", _count_horner),
        (baseline, "gram", "baseline", None),
        (baseline, "solve_normal_equations", "baseline", None),
        (baseline, "condition_estimate", "baseline", None),
        (baseline, "determinant", "baseline", None),
        (demos, "run_noisy_chirp", "demos", None),
        (demos, "run_closed_form_decay", "demos", None),
        (demos, "run_high_order_wiggle", "demos", None),
        (cli, "main", "cli.main", None),
    ]


def install(rec: Recorder) -> None:
    """Wrap every traced public function of biopoly for this process."""
    from biopoly import regress
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "biopoly" or name.startswith("biopoly.")]
    for module, attr, layer, counter in _traced_functions():
        orig = getattr(module, attr)  # a renamed function must not read as 0 s
        wrapped = rec.wrap(orig, layer, counter)
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, name, wrapped)
    regress.FitModel.__call__ = rec.wrap(regress.FitModel.__call__, "regress.eval",
                                         _count_eval)


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------

class LayerTotals:
    """Per-layer self time, calls and counts summed over spans."""

    def __init__(self):
        self.self_s = {}
        self.calls = {}
        self.counts = {}
        self.builds = 0
        self.repeat_builds = 0
        self.fits = 0
        self.projects_in_fit = 0
        self.main_s = {}         # request id -> cli.main span duration

    def add(self, spans, first_period) -> None:
        """Add one process's span list (indices are local to that list).

        Builds are counted towards ``repeat_build_frac`` only for spans
        whose request id is in ``first_period``.
        """
        child_time = [0.0] * len(spans)
        for layer, start, end, parent, req, counts in spans:
            if parent is not None:
                child_time[parent] += end - start
        for i, (layer, start, end, parent, req, counts) in enumerate(spans):
            dur = end - start
            self.self_s[layer] = self.self_s.get(layer, 0.0) + dur - child_time[i]
            self.calls[layer] = self.calls.get(layer, 0) + 1
            for key, value in (counts or {}).items():
                if key == "max_bits":
                    prev = self.counts.get((layer, key), 0)
                    self.counts[(layer, key)] = max(prev, value)
                else:
                    self.counts[(layer, key)] = self.counts.get((layer, key), 0) + value
            if layer == "biorth.build" and req in first_period:
                self.builds += 1
                self.repeat_builds += (counts or {}).get("repeat", 0)
            elif layer == "regress.fit":
                self.fits += 1
            elif layer == "biorth.project" and _has_ancestor(spans, i, "regress.fit"):
                self.projects_in_fit += 1
            elif layer == "cli.main":
                self.main_s[req] = self.main_s.get(req, 0.0) + dur

    def metrics(self, periods: int) -> dict:
        """Per-period values of the span-derived per-layer metrics.

        ``repeat_build_frac`` uses the first period only, so that it does
        not depend on how many periods fit in the run.
        """
        p = float(periods)

        def self_s(layer):
            return self.self_s.get(layer, 0.0) / p

        def calls(layer):
            return self.calls.get(layer, 0) / p

        def count(layer, key):
            return self.counts.get((layer, key), 0) / p

        bits = max(self.counts.get(("biorth.build", "max_bits"), 0),
                   self.counts.get(("biorth.upgrade", "max_bits"), 0))
        return {
            "regress.moments_from_samples.self_s": self_s("regress.moments_from_samples"),
            "regress.moments_from_samples.calls": calls("regress.moments_from_samples"),
            "regress.moments_from_samples.point_moments":
                count("regress.moments_from_samples", "point_moments"),
            "regress.moments_quadrature.self_s": self_s("regress.moments_quadrature"),
            "regress.moments_closed_form.self_s": self_s("regress.moments_closed_form"),
            "biorth.build.self_s": self_s("biorth.build"),
            "biorth.build.calls": calls("biorth.build"),
            "biorth.build.rows": count("biorth.build", "rows"),
            "biorth.repeat_build_frac":
                self.repeat_builds / self.builds if self.builds else 0.0,
            "biorth.select_removal.self_s": self_s("biorth.select_removal"),
            "biorth.select_removal.calls": calls("biorth.select_removal"),
            "biorth.downgrade.self_s": self_s("biorth.downgrade"),
            "biorth.downgrade.calls": calls("biorth.downgrade"),
            "regress.fit.projects_per_fit":
                self.projects_in_fit / self.fits if self.fits else 0.0,
            "biorth.project.self_s": self_s("biorth.project"),
            "biorth.project.calls": calls("biorth.project"),
            "biorth.upgrade.self_s": self_s("biorth.upgrade"),
            "biorth.upgrade.calls": calls("biorth.upgrade"),
            "biorth.max_bits": bits,
            "regress.fit.self_s": self_s("regress.fit"),
            "regress.fit.calls": calls("regress.fit"),
            "regress.eval.self_s": self_s("regress.eval"),
            "regress.eval.points": count("regress.eval", "points"),
            "exact.horner_many.self_s": self_s("exact.horner_many"),
            "exact.horner_many.point_terms": count("exact.horner_many", "point_terms"),
            "regress.diagnostics.self_s": self_s("regress.diagnostics"),
            "baseline.self_s": self_s("baseline"),
            "demos.self_s": self_s("demos"),
            "cli.main.self_s": self_s("cli.main"),
        }

    def shares(self) -> dict:
        """Each layer's share of the summed library self time."""
        layers = {k: v for k, v in self.self_s.items()
                  if k not in (BOOKKEEPING, REQUEST)}
        total = sum(layers.values()) or 1.0
        return {k: v / total for k, v in sorted(layers.items(),
                                                 key=lambda kv: -kv[1])}


def _has_ancestor(spans, i, layer) -> bool:
    parent = spans[i][3]
    while parent is not None:
        if spans[parent][0] == layer:
            return True
        parent = spans[parent][3]
    return False
