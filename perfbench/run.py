"""Benchmark of memobs: one workload, one client, operations in a closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: memobs is imported from ``src/``
next to this directory, never from an installed copy.  The run

1. times ``setup_s``: the median over several fresh interpreters of
   importing memobs (numpy and scipy with it) and building the inputs;
2. builds the workload's inputs from ``--seed`` and runs one warm-up pass;
3. repeats passes over the workload's operations for ``--seconds``.  A pass
   runs every operation once, in sequence; its ``wall_s`` is the sum of its
   operations' latencies.  Each output is checked against an oracle after
   its operation, outside the timed span; an exception or a failed check
   counts as a failed operation.

Operation and pass times are reported in reference seconds.  On the shared
2-core machine this benchmark was written on, one pass took anywhere from
2 s to 6 s, in phases of tens of seconds to minutes set by other tenants,
which no median within a 35 s run removes.  So a fixed reference loop
(``reference_time``) runs before every operation and after the last one,
outside the timed spans, and each operation's latency is divided by the mean
of the reference times just before and just after it, over ``REFERENCE_S``:
it becomes the time the operation would have taken on a machine where the
reference loop takes ``REFERENCE_S``.  The loop runs no memobs code, so a
faster memobs still shows in full.  ``setup_s`` and the per-layer times are
as measured; ``reference.scale`` reports the slowdown of the traced run.

With ``--trace 0`` it reports the end-to-end metrics: medians over passes of
``wall_s``, latency percentiles over all operations of the timed passes,
``setup_s`` and the peak resident memory.  With ``--trace 1`` traced and
untraced passes alternate; the traced ones wrap every public memobs function
(see ``tracer.py``) and give the per-layer metrics, medians over traced
passes, and ``trace.overhead_frac``.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
SETUP_STARTS = 5
REFERENCE_STEPS = 9000
REFERENCE_S = 0.010

END_TO_END = {
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "modal.solves": "count",
    "modal.steps": "count",
    "modal.max_n": "count",
    "modal.busy_s": "s",
    "modal.steps_per_s": "1/s",
    "modal.nodal_self_s": "s",
    "evolution.lookups": "count",
    "evolution.misses": "count",
    "evolution.hit_ratio": "ratio",
    "evolution.values_s": "s",
    "evolution.threaded_calls": "count",
    "sampling.self_s": "s",
    "sampling.eig_dim_max": "count",
    "spectral.overlap_calls": "count",
    "spectral.overlap_s": "s",
    "kernels.eval_calls": "count",
    "kernels.eval_s": "s",
    "kernels.series_s": "s",
    "inverse_control.certify_self_s": "s",
    "inverse_control.reconstruct_self_s": "s",
    "inverse_control.control_self_s": "s",
    "inverse_control.simulate_controlled_s": "s",
    "cli.parse_s": "s",
    "cli.emit_s": "s",
    "cli.artifact_bytes": "bytes",
}


def per_layer_units(cli_ops) -> dict[str, str]:
    units = dict(LAYER_UNITS)
    units.update({f"cli.cmd.{op}_ms": "ms" for op in cli_ops})
    units.update({"trace.overhead_frac": "ratio", "reference.scale": "ratio",
                  "check.max_rel_err": "ratio", "fail_frac": "ratio"})
    return units


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="input sizes; tiny is for the self-test")
    p.add_argument("--setup-only", action="store_true",
                   help="import memobs, build the inputs and exit (one set-up sample)")
    return p.parse_args(argv)


def import_memobs():
    """Import memobs from the checkout's src/ or exit without a result."""
    if not (SRC / "memobs" / "__init__.py").is_file():
        sys.exit(f"perfbench: no memobs sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import memobs

    if Path(memobs.__file__).resolve().parent != SRC / "memobs":
        sys.exit(f"perfbench: memobs imported from {memobs.__file__}, not {SRC}")


def reference_time() -> float:
    """Seconds taken by a fixed loop of interpreter steps and short numpy
    dot products, the kind of work the modal march does, without memobs."""
    import numpy as np

    a = np.linspace(0.0, 1.0, 512)
    b = a[::-1].copy()
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(REFERENCE_STEPS):
        n = 256 + (i & 255)
        acc = 0.5 * acc + float(np.dot(a[:n], b[:n]))
    return time.perf_counter() - t0


def measure_setup(args) -> float:
    """Median wall time of fresh interpreters that import memobs and build
    the inputs.  Not scaled: a cold start is mostly imports, whose time did
    not follow the reference loop (scaling doubled its spread)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-only"]
    samples = []
    for _ in range(SETUP_STARTS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=120, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


class Pass:
    """Outcome of one pass: per-operation latencies (seconds as measured),
    the reference times around them, failures and the worst oracle error."""

    def __init__(self):
        self.latencies: list[tuple[str, float]] = []
        self.references: list[float] = []
        self.failed = 0
        self.max_err = 0.0
        self.layers: dict[str, float] = {}

    @property
    def wall(self) -> float:
        return sum(dt for _, dt in self.latencies)

    @property
    def scale(self) -> float:
        """How much slower than nominal the reference loop ran in this pass."""
        return statistics.median(self.references) / REFERENCE_S

    @property
    def ref_latencies(self) -> list[float]:
        """Latencies in reference seconds; references[i] and [i + 1] were
        measured just before and just after operation i."""
        r = self.references
        return [dt * 2.0 * REFERENCE_S / (r[i] + r[i + 1])
                for i, (_, dt) in enumerate(self.latencies)]

    @property
    def ref_wall(self) -> float:
        return sum(self.ref_latencies)


def run_pass(workload, tracer=None) -> Pass:
    import oracles

    out = Pass()
    for i, op in enumerate(workload.ops()):
        out.references.append(reference_time())
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            result = op.run()
        except Exception:
            out.latencies.append((op.name, time.perf_counter() - t0))
            out.failed += 1
            print(f"operation {op.name} raised:\n{traceback.format_exc()}", file=sys.stderr)
            continue
        finally:
            if tracer is not None:
                tracer.op = None
        out.latencies.append((op.name, time.perf_counter() - t0))
        try:
            out.max_err = max(out.max_err, op.check(result))
        except oracles.CheckError as exc:
            out.failed += 1
            print(f"operation {op.name} failed its check: {exc}", file=sys.stderr)
        except Exception:
            out.failed += 1
            print(f"check of {op.name} raised:\n{traceback.format_exc()}", file=sys.stderr)
    out.references.append(reference_time())
    return out


def count(passes) -> tuple[int, int]:
    """Operations attempted and failed over the passes."""
    return sum(len(p.latencies) for p in passes), sum(p.failed for p in passes)


def run_traced_pass(workload):
    from tracer import Tracer, layer_metrics

    tracer = Tracer()
    tracer.install()
    try:
        result = run_pass(workload, tracer)
    finally:
        tracer.uninstall()
    result.layers = layer_metrics(tracer.spans)
    return result, tracer


def measure(workload, seconds: float, trace: bool):
    """Warm-up pass, then passes until the time is up; with ``trace`` every
    second pass is traced.  Returns (warm-up, untraced, traced, tracers)."""
    start = time.perf_counter()
    warmup = run_pass(workload)
    plain, traced, tracers = [], [], []
    while True:
        done = plain + traced
        elapsed = time.perf_counter() - start
        typical = statistics.median(p.wall for p in [warmup] + done)
        need_more = len(plain) < 2 or (trace and len(traced) < 2)
        if not need_more and elapsed + typical > seconds:
            break
        if trace and len(traced) < len(plain):
            result, tracer = run_traced_pass(workload)
            traced.append(result)
            tracers.append(tracer)
        else:
            plain.append(run_pass(workload))
    return warmup, plain, traced, tracers


def quantile(values, q: float) -> float:
    """Inclusive quantile with linear interpolation."""
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def end_to_end(plain, setup_s) -> dict[str, float]:
    lat = [dt for p in plain for dt in p.ref_latencies]
    return {
        "wall_s": statistics.median(p.ref_wall for p in plain),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_p90_ms": 1e3 * quantile(lat, 0.90),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(plain, traced, cli_ops, fail_frac) -> dict[str, float]:
    out = {name: statistics.median(p.layers[name] for p in traced) for name in LAYER_UNITS}
    for op in cli_ops:  # 0 on the workloads that run no CLI command
        times = [dt for p in plain for name, dt in p.latencies if name == op]
        out[f"cli.cmd.{op}_ms"] = 1e3 * statistics.median(times) if times else 0.0
    # Each traced pass runs right after an untraced one; the median of the
    # pairs' ratios cancels drift in machine speed between passes.
    out["trace.overhead_frac"] = statistics.median(
        t.ref_wall / p.ref_wall for p, t in zip(plain, traced)) - 1.0
    out["reference.scale"] = statistics.median(p.scale for p in plain + traced)
    out["check.max_rel_err"] = max(p.max_err for p in plain + traced)
    out["fail_frac"] = fail_frac
    return out


def write_spans(path: Path, tracers) -> None:
    keys = ("name", "start", "end", "parent", "op", "attrs")
    with open(path, "w", encoding="utf-8") as fh:
        for n, tracer in enumerate(tracers):
            for span in tracer.spans:
                fh.write(json.dumps({"pass": n, **dict(zip(keys, span))}) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    import_memobs()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(workloads.WORKLOADS)}")
    warnings.simplefilter("ignore", RuntimeWarning)
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    try:
        if args.setup_only:
            workloads.build(args.workload, args.seed, args.size, workdir)
            return 0
        setup_s = None if args.trace else measure_setup(args)
        workload = workloads.build(args.workload, args.seed, args.size, workdir)
        warmup, plain, traced, tracers = measure(workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = count([warmup] + plain + traced)
    cli_ops = workloads.CLI_OPS
    if args.trace:
        OUT.mkdir(parents=True, exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
        write_spans(spans_path, tracers)
        values = per_layer(plain, traced, cli_ops, failed / attempted)
        units = per_layer_units(cli_ops)
        print(f"spans of {len(traced)} traced passes written to {spans_path}")
    else:
        values = end_to_end(plain, setup_s)
        units = END_TO_END
    n_lat = sum(len(p.latencies) for p in plain)
    print(f"workload {args.workload} seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced passes after one warm-up pass, {n_lat} timed operations "
          f"({len(plain[0].latencies)} per pass), {failed} of {attempted} operations failed")
    print(f"  pass wall as measured: median {statistics.median(p.wall for p in plain):.4g} s, "
          f"reference scale {statistics.median(p.scale for p in plain):.4g}")
    for name, unit in units.items():
        print(f"  {name:40s} {values[name]:.6g} {unit}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
