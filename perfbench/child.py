"""One repetition of a workload in a fresh interpreter.

    python3 perfbench/child.py --mode run --out DIR [--trace] CONFIG...

Times `import torgrowth` plus `ExperimentConfig.from_file` for every config
(set-up), then `growthlab.run(config, out_dir)` for each config in turn (run),
and prints one JSON line: the times, `ru_maxrss`, versions, and the outputs
the parent checks against the pins.  `--mode import` only imports (it
compiles the bytecode cache before anything is timed); `--mode setup` stops
after set-up.  With `--trace`, spans are recorded around the public
functions of each layer and returned as well.  torgrowth is imported from
`src/` of the checkout this file is in, and from nowhere else.
"""

import argparse
import dataclasses
import json
import pathlib
import resource
import sys
import time
import traceback

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("import", "setup", "run"), required=True)
    ap.add_argument("--out")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("configs", nargs="*")
    args = ap.parse_args(argv)
    if args.trace:
        from spans import Tracer, layer_metrics, root_duration

    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import torgrowth
    from torgrowth import growthlab

    if SRC not in pathlib.Path(torgrowth.__file__).resolve().parents:
        print(f"torgrowth was imported from {torgrowth.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.mode == "import":
        print(json.dumps({"import_s": time.perf_counter() - t0}))
        return 0

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
        root = tracer.open("growthlab.config")
    configs = [growthlab.ExperimentConfig.from_file(p) for p in args.configs]
    if tracer:
        tracer.close(root)
    result = {"setup_s": time.perf_counter() - t0}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    import mpmath
    import numpy
    from torgrowth.laurent import poly_to_json

    outputs = []
    run_s = 0.0
    for i, config in enumerate(configs):
        out_dir = pathlib.Path(args.out) / str(i)
        t_start = time.perf_counter()
        try:
            report = growthlab.run(config, out_dir)
        except Exception as exc:  # a failed config fails its operations; keep measuring the rest
            traceback.print_exc()
            report, error = None, repr(exc)
        run_s += time.perf_counter() - t_start
        if report is None:
            outputs.append({"error": error})
            continue
        outputs.append({
            "delta": poly_to_json(report.delta_poly),
            "target": report.target.value,
            "samples": [[s.gamma, s.index, str(s.torsion_order), s.betti] for s in report.samples],
            "report_bytes": sum(f.stat().st_size for f in out_dir.iterdir()),
        })
    result.update(
        run_s=run_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        outputs=outputs,
        versions={"python": sys.version.split()[0], "numpy": numpy.__version__,
                  "mpmath": mpmath.__version__, "torgrowth": torgrowth.__version__},
    )
    if tracer:
        tracer.uninstall()
        layers = layer_metrics(tracer.spans)
        layers["growthlab.report_bytes"] = sum(o.get("report_bytes", 0) for o in outputs)
        result.update(
            layers=layers,
            traced_run_s=root_duration(tracer.spans, "growthlab.run"),
            traced_setup_s=root_duration(tracer.spans, "growthlab.config"),
            missing_targets=tracer.missing,
            spans=[dataclasses.asdict(sp) for sp in tracer.spans],
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
