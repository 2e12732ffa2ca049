"""Pinned reference outputs and the correctness check against them.

    python3 perfbench/pins.py          # regenerate perfbench/pins/*.json

A pin file holds, per config of a workload, the expected Delta, the
closed-form Mahler reference with the tolerance the target must meet, and
the expected `[index, torsion_order, betti]` of every sample keyed by its
subgroup descriptor, so pins hold for every seed.

Regenerating cross-checks every pinned torsion order that an independent
route can reach: `character_product` for 1x1 modules at small |A| with
Betti number 0, and `cyclic_branched_oracle` for branched covers at every
non-degenerate l.  Neither is called by the measured benchmark.
"""

from __future__ import annotations

import json
import pathlib
import sys
from dataclasses import dataclass, field

HERE = pathlib.Path(__file__).resolve().parent
PINS = HERE / "pins"
# largest |A| at which the character product cross-check is run
CHARACTER_PRODUCT_MAX_INDEX = 150


def load(workload: str) -> dict:
    return json.loads((PINS / f"{workload}.json").read_text())


@dataclass
class Check:
    """Operations (one per sample, one per Mahler target) checked, failed."""

    attempted: int = 0
    failed: int = 0
    target_err: float = 0.0
    problems: list[str] = field(default_factory=list)

    def add(self, other: "Check") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.target_err = max(self.target_err, other.target_err)
        self.problems.extend(other.problems)


def check(pins: dict, labels: list[str], outputs: list[dict]) -> Check:
    """Compare one repetition's outputs, config by config, with the pins."""
    res = Check()
    for label, out in zip(labels, outputs, strict=True):
        pin = pins["configs"][label]
        expected = pin["samples"]
        res.attempted += len(expected) + 1
        if "error" in out:
            res.failed += len(expected) + 1
            res.problems.append(f"{label}: {out['error']}")
            continue
        err = abs(out["target"] - pin["target_ref"])
        res.target_err = max(res.target_err, err)
        if out["delta"] != pin["delta"]:
            res.failed += 1
            res.problems.append(f"{label}: Delta {out['delta']} != pinned {pin['delta']}")
        elif not err <= pin["target_tol"]:
            res.failed += 1
            res.problems.append(f"{label}: Mahler target off its closed form by {err:.3g} "
                                f"> {pin['target_tol']:.3g}")
        got = {g: [index, tor, betti] for g, index, tor, betti in out["samples"]}
        for gamma, want in expected.items():
            have = got.pop(gamma, None)
            if have != want:
                res.failed += 1
                res.problems.append(f"{label} {gamma}: got {have}, pinned {want}")
        res.attempted += len(got)
        res.failed += len(got)
        res.problems.extend(f"{label} {gamma}: not pinned" for gamma in got)
    return res


def _cross_check(config, report, label: str) -> int:
    """Compare pinned torsion orders with an independent route; return how
    many samples were cross-checked."""
    from torgrowth.torsion import OracleDegenerateError, character_product, cyclic_branched_oracle

    subgroups = dict(config.sequence)
    checked = 0
    for s in report.samples:
        gamma = subgroups[s.gamma]
        if config.branched:
            try:
                want = cyclic_branched_oracle(report.delta_poly, s.index)
            except OracleDegenerateError:
                continue
        elif config.module.m0 == config.module.m1 == 1:
            if s.index > CHARACTER_PRODUCT_MAX_INDEX or s.betti:
                continue
            want = character_product(config.module.matrix[0][0], gamma)
        else:
            continue
        if want != s.torsion_order:
            raise AssertionError(f"{label} {s.gamma}: SNF {s.torsion_order} != independent {want}")
        checked += 1
    return checked


def make_pins() -> None:
    sys.path.insert(0, str(HERE.parent / "src"))
    from torgrowth import growthlab
    from torgrowth.laurent import poly_to_json

    import workloads

    PINS.mkdir(exist_ok=True)
    for name in workloads.NAMES:
        pinned = {}
        for label, cfg, ref in workloads.configs(name, 0):
            config = growthlab.ExperimentConfig.from_dict(cfg)
            report = growthlab.run(config)
            checked = _cross_check(config, report, label)
            err = abs(report.target.value - ref)
            pinned[label] = {
                "delta": poly_to_json(report.delta_poly),
                "target_ref": ref,
                "target_tol": max(1e-6, 2 * err),
                "samples": {s.gamma: [s.index, str(s.torsion_order), s.betti]
                            for s in report.samples},
            }
            print(f"{name} {label}: {len(report.samples)} samples, {checked} cross-checked, "
                  f"target off its closed form by {err:.3g}")
        (PINS / f"{name}.json").write_text(
            json.dumps({"workload": name, "configs": pinned}, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    make_pins()
