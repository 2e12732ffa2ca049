"""Spans around torgrowth's public functions, recorded from outside.

`Tracer.install()` replaces each function in `TARGETS` at the module or
class attribute its caller resolves, with a wrapper that records a span:
layer name, start, end, parent span and the sample descriptor in force.
Spans stay in memory; `layer_metrics` turns them into self times and
counts.  Attributes that cost time to compute (matrix nonzeros, factor bit
sizes) are measured after a span ends on a clock that excludes that time,
so they are charged to no layer.

Only the standard library is imported here, so loading this module adds
nothing to the measured import of torgrowth.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    sample: str | None = None
    attrs: dict = field(default_factory=dict)


def _matrix_attrs(args, kwargs, result) -> dict:
    rows = len(result)
    cols = len(result[0]) if rows else 0
    nnz = sum(1 for row in result for x in row if x)
    return {"cells": rows * cols, "nnz": nnz}


def _snf_attrs(args, kwargs, result) -> dict:
    return {"max_factor_bits": max((abs(d).bit_length() for d in result), default=0)}


def _sample_attrs(args, kwargs, result) -> dict:
    return {"betti": result.betti}


def _degree_attrs(args, kwargs, result) -> dict:
    f = args[0]
    return {"degree": max(e[0] for e, _ in f.terms) - min(e[0] for e, _ in f.terms)}


def _descriptor(args, kwargs):
    return kwargs.get("descriptor", args[2] if len(args) > 2 else None)


# (module, attribute path, layer, attribute function, marks a sample)
TARGETS = (
    # set-up: ExperimentConfig.from_file
    ("torgrowth.growthlab", "converging_k_sequence", "lattices.k_search", None, False),
    ("torgrowth.growthlab", "gamma_sj", "lattices.sequence", None, False),
    ("torgrowth.lattices", "Subgroup.cyclic", "lattices.sequence", None, False),
    ("torgrowth.lattices", "Subgroup.diagonal", "lattices.sequence", None, False),
    ("torgrowth.growthlab", "parse_presentation", "presmod.module", None, False),
    ("torgrowth.growthlab", "alexander_module", "presmod.module", None, False),
    ("torgrowth.growthlab", "branched_module", "presmod.module", None, False),
    ("torgrowth.presmod", "PresentedModule.from_json", "presmod.module", None, False),
    # growthlab.run
    ("torgrowth.growthlab", "run", "growthlab.run", None, False),
    ("torgrowth.growthlab", "delta", "presmod.delta", None, False),
    ("torgrowth.presmod", "gcd_list", "laurent.gcd", None, False),
    ("torgrowth.growthlab", "mahler_target", "mahler.target", None, False),
    ("torgrowth.growthlab", "mahler_univariate", "mahler.univariate", _degree_attrs, False),
    ("torgrowth.mahler", "mahler_univariate", "mahler.univariate", _degree_attrs, False),
    ("torgrowth.laurent", "LaurentPoly.tau", "laurent.tau", None, False),
    ("torgrowth.mahler", "normalize_unit", "laurent.normalize", None, False),
    ("torgrowth.growthlab", "growth_sample", "torsion.growth_sample", _sample_attrs, True),
    ("torgrowth.torsion", "quotient", "lattices.quotient", None, False),
    ("torgrowth.torsion", "expand", "torsion.expand", _matrix_attrs, False),
    ("torgrowth.torsion", "project_poly", "groupalg.project_poly", None, False),
    ("torgrowth.torsion", "mult_matrix", "groupalg.mult_matrix", None, False),
    ("torgrowth.torsion", "snf_diagonal", "intlinalg.snf", _snf_attrs, False),
    ("torgrowth.torsion", "min_norm", "lattices.min_norm", None, False),
    ("torgrowth.torsion", "direction_of", "lattices.direction", None, False),
)


class Tracer:
    """Records nested spans on a clock that skips the tracer's own
    attribute computations."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._paused = 0.0
        self._restore: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def now(self) -> float:
        return time.perf_counter() - self._paused

    def open(self, name: str, sample: str | None = None) -> int:
        parent = self._stack[-1] if self._stack else None
        if sample is None and parent is not None:
            sample = self.spans[parent].sample
        self.spans.append(Span(name, self.now(), parent=parent, sample=sample))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = self.now()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError("spans closed out of order")

    def annotate(self, idx: int, fn, args, kwargs, result) -> None:
        t0 = time.perf_counter()
        self.spans[idx].attrs = fn(args, kwargs, result)
        self._paused += time.perf_counter() - t0

    def wrap(self, fn, layer: str, attr_fn=None, marks_sample: bool = False):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(layer, _descriptor(args, kwargs) if marks_sample else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if attr_fn is not None:
                tracer.annotate(idx, attr_fn, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target that exists; record the ones that do not."""
        for module, path, layer, attr_fn, marks in TARGETS:
            try:
                owner = importlib.import_module(module)
            except ModuleNotFoundError:
                owner = None
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            # a class's own dict keeps classmethods unbound, so they can be rewrapped
            original = None if owner is None else vars(owner).get(attr)
            if original is None:
                self.missing.append(f"{module}.{path}")
                continue
            if isinstance(original, classmethod):
                wrapped = classmethod(self.wrap(original.__func__, layer, attr_fn, marks))
            else:
                wrapped = self.wrap(original, layer, attr_fn, marks)
            self._restore.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        if sp.parent is not None:
            parent = spans[sp.parent]
            s, e = max(sp.start, parent.start), min(sp.end, parent.end)
            if e > s:
                children.setdefault(sp.parent, []).append((s, e))
    return [sp.end - sp.start - _union_length(children.get(i, [])) for i, sp in enumerate(spans)]


def root_of(spans: list[Span], i: int) -> int:
    while spans[i].parent is not None:
        i = spans[i].parent
    return i


def layer_self_times(spans: list[Span], root_name: str | None = None) -> dict[str, float]:
    """Self time per layer, over all spans or only those under roots named
    `root_name`."""
    out: dict[str, float] = {}
    for i, (sp, st) in enumerate(zip(spans, self_times(spans))):
        if root_name is None or spans[root_of(spans, i)].name == root_name:
            out[sp.name] = out.get(sp.name, 0.0) + st
    return out


def root_duration(spans: list[Span], root_name: str) -> float:
    return sum(sp.end - sp.start for sp in spans if sp.parent is None and sp.name == root_name)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """The per-layer metrics of one traced run (times in s, exact counts)."""
    selfs = layer_self_times(spans)
    calls: dict[str, int] = {}
    for sp in spans:
        calls[sp.name] = calls.get(sp.name, 0) + 1

    def s(name):
        return selfs.get(name, 0.0)

    def attrs(name, key):
        return [sp.attrs[key] for sp in spans if sp.name == name and key in sp.attrs]

    cells = attrs("torsion.expand", "cells")
    return {
        "intlinalg.snf_s": s("intlinalg.snf"),
        "intlinalg.snf_calls": calls.get("intlinalg.snf", 0),
        "intlinalg.max_factor_bits": max(attrs("intlinalg.snf", "max_factor_bits"), default=0),
        "intlinalg.rank_deficient": sum(1 for b in attrs("torsion.growth_sample", "betti") if b > 0),
        "torsion.expand_s": s("torsion.expand"),
        "torsion.matrix_cells_sum": sum(cells),
        "torsion.matrix_cells_max": max(cells, default=0),
        "torsion.matrix_nnz": sum(attrs("torsion.expand", "nnz")),
        "torsion.growth_sample_s": s("torsion.growth_sample"),
        "groupalg.project_poly_s": s("groupalg.project_poly"),
        "groupalg.mult_matrix_s": s("groupalg.mult_matrix"),
        "lattices.quotient_s": s("lattices.quotient"),
        "lattices.quotient_calls": calls.get("lattices.quotient", 0),
        "lattices.min_norm_s": s("lattices.min_norm"),
        "lattices.min_norm_calls": calls.get("lattices.min_norm", 0),
        "lattices.direction_s": s("lattices.direction"),
        "lattices.direction_calls": calls.get("lattices.direction", 0),
        "lattices.sequence_s": s("lattices.sequence") + s("lattices.k_search"),
        "lattices.k_search_calls": calls.get("lattices.k_search", 0),
        "mahler.target_s": s("mahler.target"),
        "mahler.univariate_s": s("mahler.univariate"),
        "mahler.univariate_calls": calls.get("mahler.univariate", 0),
        "mahler.max_degree": max(attrs("mahler.univariate", "degree"), default=0),
        "laurent.specialize_s": s("laurent.tau") + s("laurent.normalize"),
        "laurent.tau_calls": calls.get("laurent.tau", 0),
        "laurent.gcd_s": s("laurent.gcd"),
        "presmod.delta_s": s("presmod.delta"),
        "presmod.module_s": s("presmod.module"),
        "growthlab.self_s": s("growthlab.run"),
        "growthlab.samples": calls.get("torsion.growth_sample", 0),
    }
