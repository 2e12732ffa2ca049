"""Experiment orchestration: configs, growth runs and reports.

A run loads a module (inline matrix, presentation file, optionally the
branched-cover construction), walks a subgroup sequence (cyclic, diagonal,
or the explicit converging family), records one GrowthSample per subgroup,
estimates the Mahler measure of the module's first non-vanishing Alexander
polynomial, and persists a CSV table plus a JSON report.  Runs are
deterministic given the config and seed; `final_gap` is the gap at the
largest index, which for more than one variable is *not* a convergence claim
(only the limsup is guaranteed in general).
"""

from __future__ import annotations

import json
import pathlib
import platform
import sys
import time
from dataclasses import dataclass, field
from itertools import repeat
from . import __version__
from .lattices import Subgroup, converging_k_sequence, gamma_sj, quotient, unit_vector
from .laurent import LaurentPoly, poly_to_json
from .mahler import (
    MahlerEstimate,
    mahler_boyd,
    mahler_lawton,
    mahler_quadrature,
    mahler_univariate,
)
from .presmod import (
    PresentedModule,
    alexander_module,
    branched_module,
    delta,
    parse_presentation,
)
from .torsion import GrowthSample, growth_sample, route

SIZE_GUARD = 5000


class ConfigError(ValueError):
    """The experiment configuration is malformed."""


class SizeGuardExceeded(RuntimeError):
    """An SNF- or Fourier-route subgroup would expand past the size guard (use
    force=True); the message names the route."""


_REQUIRED = object()
_SHAPE_NAMES = {int: ("an integer", "integers"), float: ("a finite number", "finite numbers"),
                bool: ("true or false", "booleans"), str: ("a string", "strings"),
                dict: ("an object", "objects")}
MAHLER_METHODS = ("auto", "jensen", "lawton", "quadrature")


def _fits(value, shape) -> bool:
    if isinstance(shape, list):
        return type(value) is list and all(_fits(x, shape[0]) for x in value)
    if shape is float:  # NaN, ±Infinity and integers past the float range fail
        return type(value) in (int, float) and abs(value) <= sys.float_info.max
    return type(value) is shape


def _describe(shape, plural: bool = False) -> str:
    if isinstance(shape, list):
        return ("lists of " if plural else "a list of ") + _describe(shape[0], True)
    return _SHAPE_NAMES[shape][plural]


def _field(spec: dict, key: str, shape, default=_REQUIRED, least: int | None = None):
    """spec[key], or `default` when the key is absent, else a ConfigError
    naming the field.

    `shape` is the exact JSON type: int, float (any finite number), bool,
    str, dict, or [shape] for a list of those.  An integer is exactly a JSON
    integer: true, 2.7 and "3" are not read as 1, 2 and 3.  `least` bounds an
    integer or every entry of an integer list from below.
    """
    if key not in spec:
        if default is _REQUIRED:
            raise ConfigError(f"missing required field {key!r}")
        return default
    value = spec[key]
    if not _fits(value, shape):
        raise ConfigError(f"{key!r} must be {_describe(shape)}, not {value!r}")
    if least is not None:
        low = min(value, default=least) if isinstance(value, list) else value
        if low < least:
            raise ConfigError(f"{key!r} must be at least {least}, not {low}")
    return value


def parse_schedule(value) -> tuple[tuple[int, ...], ...]:
    """A Lawton schedule (the config's 'schedule', the CLI's --schedule): a
    JSON list of integer lists, else a ConfigError."""
    return tuple(map(tuple, _field({"schedule": value}, "schedule", [[int]])))


def _spec_range(spec: dict) -> range:
    """start..stop inclusive by a positive step, from a cyclic or diagonal
    spec; a size of 0 is left for the full-rank check to refuse."""
    return range(_field(spec, "start", int, 1, least=0),
                 _field(spec, "stop", int, least=0) + 1,
                 _field(spec, "step", int, 1, least=1))


def load_module(spec, base_dir: str | pathlib.Path = ".") -> tuple[PresentedModule, str, bool]:
    """The module a config's 'module' object names, a label for its source,
    and whether it is the branched-cover module.

    Exactly one source: an inline 'matrix' (with 'nvars', optionally 'm0')
    or a 'presentation' file read relative to `base_dir`; 'branched' takes
    the branched-cover module and needs a presentation.
    """
    if not isinstance(spec, dict):
        raise ConfigError("config needs a 'module' object")
    sources = [k for k in ("matrix", "presentation") if k in spec]
    if len(sources) != 1:
        raise ConfigError("module must have exactly one source: 'matrix' or 'presentation'")
    branched = _field(spec, "branched", bool, False)
    if sources[0] == "matrix":
        if "nvars" not in spec:
            raise ConfigError("inline matrix module needs 'nvars'")
        if branched:
            raise ConfigError("branched mode needs a group presentation source")
        return PresentedModule.from_json(spec), "inline-matrix", False
    path = pathlib.Path(base_dir) / _field(spec, "presentation", str)
    try:
        pres = parse_presentation(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read presentation file: {exc}") from exc
    mod = alexander_module(pres)
    return (branched_module(mod, pres.nvars) if branched else mod), str(path), branched


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description: one module source, one sequence."""

    module: PresentedModule
    module_source: str
    branched: bool
    sequence: tuple[tuple[str, Subgroup], ...]
    mahler_method: str = "auto"
    mahler_samples: int = 1_000_000
    mahler_schedule: tuple[tuple[int, ...], ...] | None = None
    seed: int = 0
    jobs: int = 1
    force: bool = False

    @classmethod
    def from_dict(cls, data: dict, base_dir: str | pathlib.Path = ".") -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError("a config must be a JSON object")
        mod, source, branched = load_module(data.get("module"), base_dir)
        seq = data.get("sequence")
        if not isinstance(seq, dict) or len(seq) != 1:
            raise ConfigError("config needs exactly one sequence spec")
        kind = next(iter(seq))
        spec = _field(seq, kind, dict)
        if kind == "cyclic":
            if mod.nvars != 1:
                raise ConfigError("cyclic sequences need a one-variable module")
            subgroups = [(f"cyclic:{ell}", Subgroup.cyclic(ell)) for ell in _spec_range(spec)]
        elif kind == "diagonal":
            ds = _field(spec, "ds", [int], least=0) if "ds" in spec else _spec_range(spec)
            subgroups = [(f"diagonal:{d}", Subgroup.diagonal(mod.nvars, d)) for d in ds]
        elif kind == "gamma_sj":
            kappa = unit_vector(_field(spec, "kappa", [float]))
            if len(kappa) != mod.nvars:
                raise ConfigError("kappa length must match the module's variables")
            js = _field(spec, "js", [int], least=1)
            subgroups = []
            for s, j in enumerate(js, _field(spec, "s_start", int, 1, least=1)):
                k = converging_k_sequence(kappa, s)
                subgroups.append((f"gamma_sj:s={s},k={list(k)},j={j}", gamma_sj(k, j)))
        else:
            raise ConfigError(f"unknown sequence kind {kind!r}")
        if not subgroups:
            raise ConfigError("empty subgroup sequence")
        for desc, gamma in subgroups:
            if gamma.index() == 0:
                raise ConfigError(f"{desc}: subgroup is not of full rank; quotient is infinite")
        msettings = _field(data, "mahler", dict, {})
        method = _field(msettings, "method", str, "auto")
        if method not in MAHLER_METHODS:
            raise ConfigError(f"unknown mahler method {method!r}")
        return cls(
            module=mod,
            module_source=source,
            branched=branched,
            sequence=tuple(subgroups),
            mahler_method=method,
            mahler_samples=_field(msettings, "samples", int, 1_000_000, least=1),
            mahler_schedule=(parse_schedule(msettings["schedule"])
                             if "schedule" in msettings else None),
            seed=_field(data, "seed", int, 0, least=0),
            jobs=_field(data, "jobs", int, 1, least=1),
            force=_field(data, "force", bool, False),
        )

    @classmethod
    def from_file(cls, path, overrides: dict | None = None) -> "ExperimentConfig":
        """The config in a JSON file, with `overrides` (the CLI's --seed,
        --jobs and --force, where given) written over its top-level fields."""
        p = pathlib.Path(path)
        try:
            data = json.loads(p.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot load config {p}: {exc}") from exc
        if isinstance(data, dict):
            data.update(overrides or {})
        return cls.from_dict(data, base_dir=p.parent)


@dataclass
class ExperimentReport:
    """Results of one growth run, ordered by subgroup index."""

    delta_poly: LaurentPoly
    target: MahlerEstimate
    samples: list[GrowthSample]
    final_gap: float
    metadata: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "delta": {"nvars": self.delta_poly.nvars, "poly": poly_to_json(self.delta_poly)},
            "target": self.target.to_json(),
            "samples": [s.to_json() for s in self.samples],
            "final_gap": self.final_gap,
            "metadata": self.metadata,
        }

    def write(self, out_dir) -> None:
        """samples.csv and report.json in `out_dir`, both from one record per sample."""
        out = pathlib.Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        blob = self.to_json_dict()
        lines = [GrowthSample.CSV_HEADER]
        lines.extend(GrowthSample.record_row(rec) for rec in blob["samples"])
        (out / "samples.csv").write_text("\n".join(lines) + "\n")
        (out / "report.json").write_text(
            json.dumps(blob, indent=2, sort_keys=True, allow_nan=False) + "\n"
        )


def mahler_target(poly: LaurentPoly, method: str = "auto", samples: int = 1_000_000,
                  seed: int = 0, schedule=None) -> MahlerEstimate:
    """Dispatch a Mahler estimate for the growth target: Jensen's formula in
    one variable; in two, Boyd's integral for `auto` without a schedule; else
    Lawton's limit, unless quadrature is asked for."""
    if method == "quadrature":
        return mahler_quadrature(poly, samples=samples, seed=seed)
    if poly.nvars == 1:
        return mahler_univariate(poly)
    if method == "jensen":
        raise ConfigError("jensen needs a univariate polynomial; use lawton/quadrature")
    if method == "auto" and poly.nvars == 2 and schedule is None:
        return mahler_boyd(poly)
    return mahler_lawton(poly, schedule)


def run(config: ExperimentConfig, out_dir=None) -> ExperimentReport:
    """Execute a growth experiment; write samples.csv and report.json when
    an output directory is given."""
    t_start = time.perf_counter()
    mod = config.module
    reduced = mod.reduced
    for _, gamma in config.sequence:
        # SNF expands an |A| x |A| block per live column, at most m0 of them;
        # a Fourier sample is refused as SNF of its one column would be
        if gamma.index() * reduced.m0 > SIZE_GUARD and not config.force:
            name, free, _ = route(reduced, quotient(gamma))
            cells = gamma.index() * (reduced.m0 - free)
            if name in ("snf", "fourier") and cells > SIZE_GUARD:
                raise SizeGuardExceeded(
                    f"|A|*live columns = {cells} exceeds {SIZE_GUARD} on the {name} route; "
                    "pass force to override"
                )
    dpoly = delta(reduced)  # the reduction keeps every Fitting ideal
    t_delta = time.perf_counter()
    target = mahler_target(
        dpoly,
        method=config.mahler_method,
        samples=config.mahler_samples,
        seed=config.seed,
        schedule=config.mahler_schedule,
    )
    t_target = time.perf_counter()
    if config.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing

        descs, gammas = zip(*config.sequence)
        # the pool forks all its workers at its first submit: no more workers than samples
        with ProcessPoolExecutor(max_workers=min(config.jobs, len(gammas))) as pool:
            samples = list(pool.map(growth_sample, repeat(mod), gammas, descs))
    else:
        samples = [growth_sample(mod, gamma, desc) for desc, gamma in config.sequence]
    samples.sort(key=lambda s: (s.index, s.gamma))
    final_gap = abs(samples[-1].growth_stat - target.value)
    t_end = time.perf_counter()
    report = ExperimentReport(
        delta_poly=dpoly,
        target=target,
        samples=samples,
        final_gap=final_gap,
        metadata={
            "version": __version__,
            "python": platform.python_version(),
            "seed": config.seed,
            "module_source": config.module_source,
            "branched": config.branched,
            "timings": {
                "delta_s": t_delta - t_start,
                "target_s": t_target - t_delta,
                "samples_s": t_end - t_target,
            },
        },
    )
    if out_dir is not None:
        report.write(out_dir)
    return report
