"""The benchmark's workloads: growth configs, closed-form Mahler references.

Each workload is a list of `growthlab growth` configs run back to back.
`configs(name, seed)` builds them: the seed goes into each config's `seed`
and shuffles the order in which subgroups are listed where the config
schema takes an explicit list (`diagonal.ds`); where the schema fixes the
order (`cyclic`, `gamma_sj`), it shuffles the order of the configs instead.
Reports are sorted by index, so pins and outputs do not depend on the seed.
Why each workload is there is in BENCHMARK.json and README.md.
"""

from __future__ import annotations

import math
import pathlib
import random

DATA = pathlib.Path(__file__).resolve().parent / "data"

# 3*sqrt(3)/(4*pi) * L(2, chi_-3), Smyth (1981).
SMYTH_1_T1_T2 = 0.3230659472194505
# 7*zeta(3)/(2*pi^2), Smyth (1981).
SMYTH_1_T1_T2_T3 = 0.4262783988175058


def _inline(nvars: int, poly: list) -> dict:
    return {"nvars": nvars, "matrix": [[poly]]}


def _monomials(nvars: int, const: int) -> list:
    zero = [0] * nvars
    terms = [[zero, str(const)]]
    for i in range(nvars):
        e = list(zero)
        e[i] = 1
        terms.append([e, "1"])
    return terms


def _build(name: str) -> list[tuple[str, dict, float]]:
    """(config label, config without seed, closed-form Mahler reference)."""
    if name == "diag-3t":
        return [("3+t1+t2", {
            "module": _inline(2, _monomials(2, 3)),
            "sequence": {"diagonal": {"ds": [4, 8, 12, 16, 20, 24]}},
        }, math.log(3))]
    if name == "sj-1t":
        return [("1+t1+t2", {
            "module": _inline(2, _monomials(2, 1)),
            "sequence": {"gamma_sj": {"kappa": [0.6, 0.8], "js": [1, 2, 3] * 4,
                                      "s_start": 1}},
        }, SMYTH_1_T1_T2)]
    if name == "branched-knots":
        return [
            ("fig8", {
                "module": {"presentation": str(DATA / "fig8.txt"), "branched": True},
                "sequence": {"cyclic": {"start": 2, "stop": 90}},
            }, math.log((3 + math.sqrt(5)) / 2)),
            ("trefoil", {
                "module": {"presentation": str(DATA / "trefoil.txt"), "branched": True},
                "sequence": {"cyclic": {"start": 2, "stop": 90}},
            }, 0.0),
        ]
    if name == "mahler-3v":
        return [("1+t1+t2+t3", {
            "module": _inline(3, _monomials(3, 1)),
            "sequence": {"diagonal": {"ds": [2, 3, 4, 5]}},
            "mahler": {"method": "lawton",
                       "schedule": [[1, 4, 16], [1, 8, 64], [1, 16, 256]]},
        }, SMYTH_1_T1_T2_T3)]
    raise KeyError(name)


NAMES = ("diag-3t", "sj-1t", "branched-knots", "mahler-3v")


def configs(name: str, seed: int) -> list[tuple[str, dict, float]]:
    """The workload's configs for this seed, in the order they run."""
    rng = random.Random(seed)
    out = []
    for label, cfg, ref in _build(name):
        cfg = dict(cfg, seed=seed, jobs=1)
        seq = cfg["sequence"]
        if "diagonal" in seq:
            ds = list(seq["diagonal"]["ds"])
            rng.shuffle(ds)
            cfg["sequence"] = {"diagonal": {"ds": ds}}
        out.append((label, cfg, ref))
    rng.shuffle(out)
    return out
