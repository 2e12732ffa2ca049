"""The torgrowth benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds 10     # every workload

Runs a workload's `growthlab growth` configs through the user-level path
(`ExperimentConfig.from_file`, then `growthlab.run(config, out_dir)`), one
repetition per fresh child interpreter with `jobs=1`, one child at a time,
for at least `--seconds` seconds.  Every output is checked against the pins
in `perfbench/pins/`; a mismatch makes the command exit 1.

With `--trace 0` the metrics are end to end: set-up time (`import torgrowth`
plus `from_file`), run time, peak RSS.  With `--trace 1`, repetitions
alternate between untraced and traced children and the metrics are per
layer: self times and counts from spans around each layer's public
functions, plus the tracing overhead.  The last line of standard output is
one JSON object; the lines before it are the same figures for people, with
the facts of the run.  Run records, spans included, are written to
`.perfbench/results/` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import time

import pins
import spans
import workloads

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_ONLY_CHILDREN = 4
MIN_REPS = 3
CHILD_TIMEOUT_S = 170

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


class ChildFailed(RuntimeError):
    pass


def child(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *args],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise ChildFailed(proc.stderr.strip()[-2000:] or f"exit {proc.returncode}")
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def top_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest of p99/p95/p90/p75 with at least ten values beyond it."""
    for p in (99, 95, 90, 75):
        if len(values) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100)[p - 1]
    return None


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    pinned = pins.load(workload)
    cfgs = workloads.configs(workload, seed)
    labels = [label for label, _, _ in cfgs]
    work = WORK / f"work-{workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        paths = []
        for i, (_, cfg, _) in enumerate(cfgs):
            path = work / f"config-{i}.json"
            path.write_text(json.dumps(cfg, indent=2) + "\n")
            paths.append(str(path))
        out = str(work / "out")
        child("--mode", "import")
        deadline = time.perf_counter() + seconds
        setups = [child("--mode", "setup", *paths)["setup_s"] for _ in range(SETUP_ONLY_CHILDREN)]
        plain, traced = [], []
        while True:
            tracing = trace and len(traced) < len(plain)
            started = time.perf_counter()
            rep = child("--mode", "run", "--out", out, *(["--trace"] if tracing else []), *paths)
            shutil.rmtree(out, ignore_errors=True)
            (traced if tracing else plain).append(rep)
            done = len(plain) + len(traced) >= MIN_REPS and (traced or not trace)
            # stop once another repetition would end more than half of one past the deadline
            now = time.perf_counter()
            if done and now + (now - started) / 2 >= deadline:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = pins.Check()
    for rep in plain + traced:
        result.add(pins.check(pinned, labels, rep["outputs"]))
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "labels": labels, "setups": setups + [r["setup_s"] for r in plain],
            "plain": plain, "traced": traced, "check": result}


def end_to_end(run: dict) -> dict[str, float]:
    plain = run["plain"]
    return {
        "setup_s": statistics.median(run["setups"]),
        "run_s": statistics.median(r["run_s"] for r in plain),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }


def per_layer(run: dict) -> dict[str, float]:
    traced, plain = run["traced"], run["plain"]
    # times are medians; counts take a measured value, so they stay whole
    out = {k: (statistics.median if k.endswith("_s") else statistics.median_low)(
               r["layers"][k] for r in traced) for k in traced[0]["layers"]}
    out["trace.run_s"] = statistics.median(r["traced_run_s"] for r in traced)
    out["trace.overhead_s"] = (statistics.median(r["run_s"] for r in traced)
                               - statistics.median(r["run_s"] for r in plain))
    return out


def facts_of(run: dict) -> dict:
    return {"nproc": os.cpu_count(), "machine": platform.machine(), **run["plain"][0]["versions"],
            "seed": run["seed"], "seconds": run["seconds"],
            "reps_plain": len(run["plain"]), "reps_traced": len(run["traced"])}


def print_human(run: dict, facts: dict, metrics: dict[str, float]) -> None:
    chk, e2e = run["check"], end_to_end(run)
    print(f"== {run['workload']}  trace={int(run['trace'])}  configs={run['labels']}")
    print("facts: " + " ".join(f"{k}={v}" for k, v in facts.items()))
    print(f"  setup_s       {e2e['setup_s']:.4f} s   median of {len(run['setups'])} set-ups")
    run_s = [r["run_s"] for r in run["plain"]]
    tail = top_percentile(run_s)
    tail_text = (f"p{tail[0]} {tail[1]:.4f} s" if tail else
                 "no percentile above the median has ten reps beyond it")
    print(f"  run_s         {e2e['run_s']:.4f} s   median of {len(run_s)} reps "
          f"(min {min(run_s):.4f}, max {max(run_s):.4f}; {tail_text})")
    print(f"  peak_rss_mb   {e2e['peak_rss_mb']:.1f} MB")
    print(f"  target_err    {chk.target_err:.3g} (additive Mahler units, max over configs)")
    print(f"  error_rate    {chk.failed / chk.attempted:.4g} "
          f"({chk.failed} of {chk.attempted} operations failed)")
    for problem in chk.problems[:20]:
        print(f"  FAIL {problem}")
    if run["traced"]:
        print_layers(run, metrics)


def write_record(run: dict, facts: dict, metrics: dict[str, float]) -> None:
    reps = run["plain"] + run["traced"]
    record = {"facts": facts, "metrics": metrics, "setups": run["setups"],
              "reps": [{k: v for k, v in r.items() if k != "outputs"} for r in reps],
              "problems": run["check"].problems}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{run['workload']}-seed{run['seed']}-trace{int(run['trace'])}.json"
    (results / name).write_text(json.dumps(record) + "\n")


def print_layers(run: dict, metrics: dict[str, float]) -> None:
    rep = run["traced"][0]
    sp = [spans.Span(**s) for s in rep["spans"]]
    total = rep["traced_run_s"]
    selfs = spans.layer_self_times(sp, "growthlab.run")
    print(f"  per-layer self times of the first traced run (traced run_s {total:.4f} s):")
    for name, t in sorted(selfs.items(), key=lambda kv: -kv[1]):
        label = "growthlab.run (untraced remainder)" if name == "growthlab.run" else name
        print(f"    {label:40s} {t:9.4f} s  {100 * t / total:5.1f}%")
    print(f"    {'sum of self times':40s} {sum(selfs.values()):9.4f} s  "
          f"(traced run_s {total:.4f} s)")
    target = sum(selfs.get(k, 0.0) for k in
                 ("mahler.target", "mahler.univariate", "laurent.tau", "laurent.normalize"))
    print(f"  SNF share {100 * selfs.get('intlinalg.snf', 0.0) / total:.1f}%, "
          f"Mahler target share {100 * target / total:.1f}% of traced run_s")
    per_sample = [s.end - s.start for s in sp if s.name == "torsion.growth_sample"]
    tail = top_percentile(per_sample)
    print(f"  growth_sample: median {statistics.median(per_sample):.4f} s over "
          f"{len(per_sample)} samples" + (f", p{tail[0]} {tail[1]:.4f} s" if tail else ""))
    print(f"  tracing overhead {metrics['trace.overhead_s']:+.4f} s "
          f"(traced minus untraced run_s, medians)")
    if rep["missing_targets"]:
        print(f"  not traced (missing): {', '.join(rep['missing_targets'])}")
    units = declared("per_layer")
    for k, v in sorted(metrics.items()):
        print(f"    {k:32s} {v:.6g} {units[k]}")


def run_one(args, workload: str) -> bool:
    run = measure(workload, args.seed, args.seconds, bool(args.trace))
    metrics = per_layer(run) if args.trace else end_to_end(run)
    facts = facts_of(run)
    print_human(run, facts, metrics)
    write_record(run, facts, metrics)
    chk = run["check"]
    units = declared("per_layer" if args.trace else "end_to_end")
    print(json.dumps({
        "correct": chk.failed == 0,
        "attempted": chk.attempted,
        "failed": chk.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return chk.failed == 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "torgrowth" / "__init__.py").is_file():
        print(f"no torgrowth sources under {SRC}", file=sys.stderr)
        return 2
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    try:
        ok = [run_one(args, name) for name in names]
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"a measured child failed: {exc}", file=sys.stderr)
        return 1
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
