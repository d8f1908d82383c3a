"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 [--workloads a,b] [--trace]
                                [--baseline perfbench/BASELINE.json]

For every workload and metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``), the interquartile range as a share
of the median and, for end-to-end metrics, that share against the bound in
``BENCHMARK.json``.  ``--baseline`` writes the end-to-end statistics, the
medians of a traced run per workload, the layer-to-metric map and the
machine description to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Which end-to-end metric each per-layer metric should move, and where.
LAYER_MOVES = {
    "modal.*": "wall_s and op_p90_ms on observe-hik (march is nearly all of it); "
    "wall_s on many-instants; op_p50_ms on cli-batch at the n_min floor",
    "evolution.misses, evolution.hit_ratio, evolution.lookups, evolution.values_s":
        "wall_s on many-instants (misses are m*K; one march per mode would make them K)",
    "evolution.threaded_calls": "wall_s on cli-batch",
    "sampling.self_s, sampling.eig_dim_max": "wall_s on observe-hik",
    "spectral.overlap_calls, spectral.overlap_s": "wall_s on many-instants",
    "kernels.eval_calls, kernels.eval_s, kernels.series_s": "many-instants and cli-batch",
    "inverse_control.*": "wall_s on many-instants",
    "cli.parse_s, cli.emit_s, cli.artifact_bytes, cli.cmd.*": "op_p50_ms on cli-batch",
    "trace.overhead_frac": "none; traced wall_s / untraced wall_s - 1",
    "reference.scale": "none; how much slower than nominal the reference loop ran",
    "check.max_rel_err": "none; worst oracle error, reported and not gated",
    "fail_frac": "none; failed / attempted operations, must stay 0",
}


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(command, workload, seed, seconds, trace) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace))]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited with {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    values = " ".join(f"{n}={m['value']:.4g}" for n, m in result["metrics"].items()
                      if not trace)
    print(f"  {workload} seed {seed} trace {int(trace)}: {elapsed:.1f}s, "
          f"{result['failed']}/{result['attempted']} failed {values}", flush=True)
    return result


def stats(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "iqr_share": (q3 - q1) / median if median else 0.0}


def machine() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads_env": {k: os.environ.get(k, "unset") for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", action="store_true", help="traced runs (per-layer metrics)")
    p.add_argument("--baseline", type=Path, help="write a baseline JSON file here")
    args = p.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    for workload in args.workloads.split(","):
        runs = [run_once(spec["command"], workload, s, args.seconds, args.trace) for s in seeds]
        names = runs[0]["metrics"]
        table = {n: stats([r["metrics"][n]["value"] for r in runs]) for n in names}
        for n, st in table.items():
            st["unit"] = runs[0]["metrics"][n]["unit"]
            bound = bounds.get(n)
            mark = "" if bound is None else (
                f"  bound {bound:.2f}  {'ok' if st['iqr_share'] < bound / 3 else 'WIDE'}")
            print(f"{workload:14s} {n:40s} median {st['median']:.6g} {st['unit']} "
                  f"[{st['q1']:.6g}, {st['q3']:.6g}] iqr/median {st['iqr_share']:.4f}{mark}")
        report[workload] = {"runs": len(runs), "failed": sum(r["failed"] for r in runs),
                            "attempted": sum(r["attempted"] for r in runs), "metrics": table}
    if args.baseline:
        sys.path.insert(0, str(ROOT / "perfbench"))
        sys.path.insert(0, str(ROOT / "src"))
        import workloads

        old = json.loads(args.baseline.read_text()) if args.baseline.exists() else {}
        key = "per_layer" if args.trace else "end_to_end"
        out = {
            "machine": machine(),
            "run_seconds": args.seconds,
            "loop": "closed: one client runs the operations of a pass in sequence",
            "layer_to_metric": LAYER_MOVES,
            "workloads": old.get("workloads", {}),
        }
        whys = {w["name"]: w["why"] for w in spec["workloads"]}
        for name, rep in report.items():
            entry = out["workloads"].setdefault(name, {})
            entry.update(why=whys[name], **workloads.WORKLOADS[name])
            if args.trace:
                entry["max_n"] = rep["metrics"]["modal.max_n"]["median"]
            entry[key] = {"seeds": args.seeds, **rep}
        args.baseline.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
