"""Command-line interface: the `growthlab` entry point.

Subcommands: alexander, fox, branched, mahler, torsion, growth.  Errors,
usage errors included, exit 1 with a machine-readable JSON object on
stderr.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from . import growthlab
from .laurent import LaurentPoly, parse_poly, poly_from_json, poly_to_json
from .lattices import Subgroup
from .presmod import (
    PresentedModule,
    alexander_complex,
    alexander_module,
    all_alexander,
    branched_module,
    parse_presentation,
    rank,
)
from .torsion import decimal_str, torsion_and_betti


def _read_poly(text: str, nvars: int | None) -> LaurentPoly:
    text = text.strip()
    if text.startswith("["):
        return poly_from_json(json.loads(text), nvars)
    return parse_poly(text, nvars)


def _load_module(args) -> PresentedModule:
    """The module of --matrix (a JSON file) or --presentation [--branched]."""
    spec = json.loads(pathlib.Path(args.matrix).read_text()) if args.matrix else {}
    if isinstance(spec, dict):
        spec = dict(spec, branched=args.branched)
        if args.presentation:
            spec["presentation"] = args.presentation
    return growthlab.load_module(spec)[0]


def _subgroup_from_args(args, nvars: int) -> Subgroup:
    if args.cyclic is not None:
        if nvars != 1:
            raise ValueError("--cyclic needs a one-variable module")
        return Subgroup.cyclic(args.cyclic)
    if args.diagonal is not None:
        return Subgroup.diagonal(nvars, args.diagonal)
    return Subgroup.from_json(json.loads(args.gamma))


def cmd_alexander(args) -> int:
    mod = _load_module(args)
    polys = all_alexander(mod)
    r = rank(mod)
    out = {
        "rank": r,
        "alexander": [str(p) for p in polys],
        "delta": str(polys[r]),
    }
    if args.presentation and not getattr(args, "branched", False):
        out["note"] = (
            "indices follow the relation-module convention; the homological "
            "numbering of the covering space is shifted down by one"
        )
    print(json.dumps(out, indent=2, allow_nan=False) if args.json else _fmt_alexander(out))
    return 0


def _fmt_alexander(out: dict) -> str:
    lines = [f"rank = {out['rank']}"]
    for j, p in enumerate(out["alexander"]):
        lines.append(f"Delta_{j} = {p}")
    lines.append(f"Delta(M) = {out['delta']}")
    if "note" in out:
        lines.append(f"note: {out['note']}")
    return "\n".join(lines)


def cmd_fox(args) -> int:
    pres = parse_presentation(pathlib.Path(args.presentation).read_text())
    cx = alexander_complex(pres)
    out = {
        "nvars": pres.nvars,
        "ranks": list(cx.ranks),
        "d1": [[poly_to_json(e) for e in row] for row in cx.diffs[0]],
        "d2": [[poly_to_json(e) for e in row] for row in cx.diffs[1]],
        "module": alexander_module(pres).to_json(),
    }
    print(json.dumps(out, indent=2, allow_nan=False))
    return 0


def cmd_branched(args) -> int:
    pres = parse_presentation(pathlib.Path(args.presentation).read_text())
    mod = branched_module(alexander_module(pres), pres.nvars)
    print(json.dumps(mod.to_json(), indent=2, allow_nan=False))
    return 0


def cmd_mahler(args) -> int:
    f = _read_poly(args.poly, args.nvars)
    schedule = growthlab.parse_schedule(json.loads(args.schedule)) if args.schedule else None
    # the config's bounds on mahler.samples and seed, whatever the method
    samples = growthlab._field(vars(args), "samples", int, least=1)
    seed = growthlab._field(vars(args), "seed", int, least=0)
    est = growthlab.mahler_target(f, args.method, samples, seed, schedule)
    print(json.dumps(est.to_json(), indent=2, allow_nan=False))
    return 0


def cmd_torsion(args) -> int:
    mod = _load_module(args)
    gamma = _subgroup_from_args(args, mod.nvars)
    tor, b = torsion_and_betti(mod, gamma)
    print(json.dumps({"torsion_order": decimal_str(tor), "betti": b}, indent=2, allow_nan=False))
    return 0


def cmd_growth(args) -> int:
    given = {k: v for k in ("seed", "jobs", "force") if (v := getattr(args, k)) is not None}
    config = growthlab.ExperimentConfig.from_file(args.config, given)
    report = growthlab.run(config, out_dir=args.out)
    summary = {
        "delta": str(report.delta_poly),
        "target": report.target.to_json(),
        "samples": len(report.samples),
        "final_gap": report.final_gap,
        "out": args.out,
    }
    print(json.dumps(summary, indent=2, allow_nan=False))
    return 0


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors raise ValueError, for `main` to report;
    `add_subparsers` gives the subcommand parsers the same class."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="growthlab",
        description="Torsion growth of modules over Laurent polynomial rings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_module_source(p):
        p.add_argument("--matrix", help="JSON file with a presentation matrix")
        p.add_argument("--presentation", help="group presentation text file")
        p.add_argument(
            "--branched", action="store_true",
            help="use the branched-cover module of the presentation",
        )

    p = sub.add_parser("alexander", help="Alexander polynomials of a module")
    add_module_source(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_alexander)

    p = sub.add_parser("fox", help="chain complex and module from a presentation")
    p.add_argument("--presentation", required=True)
    p.set_defaults(func=cmd_fox)

    p = sub.add_parser("branched", help="branched-cover module of a presentation")
    p.add_argument("--presentation", required=True)
    p.set_defaults(func=cmd_branched)

    p = sub.add_parser("mahler", help="Mahler measure of a Laurent polynomial")
    p.add_argument("--poly", required=True, help="polynomial string or JSON terms")
    p.add_argument("--nvars", type=int)
    p.add_argument("--method", choices=growthlab.MAHLER_METHODS, default="auto")
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--schedule", help="JSON list of k-vectors for lawton")
    p.set_defaults(func=cmd_mahler)

    p = sub.add_parser("torsion", help="torsion order over one finite quotient")
    add_module_source(p)
    subgroup = p.add_mutually_exclusive_group(required=True)
    subgroup.add_argument("--cyclic", type=int, help="cyclic cover order (one variable)")
    subgroup.add_argument("--diagonal", type=int, help="diagonal subgroup d*Z^n")
    subgroup.add_argument("--gamma", help="JSON list of the integer vectors that generate Gamma")
    p.set_defaults(func=cmd_torsion)

    p = sub.add_parser("growth", help="run a growth experiment from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="output directory for samples.csv / report.json")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--jobs", type=int, default=None)
    p.add_argument("--force", action="store_true", default=None,
                   help="override the SNF size guard")
    p.set_defaults(func=cmd_growth)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, RuntimeError, OSError, json.JSONDecodeError) as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(payload, allow_nan=False), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
