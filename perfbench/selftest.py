"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks that

* every workload, untraced and traced, prints as its last line a JSON object
  with exactly the keys correct, attempted, failed and metrics, whose
  metrics are exactly those of BENCHMARK.json with their units, and that no
  operation fails;
* a deliberately perturbed result fails its check and is counted;
* without the memobs sources the benchmark exits non-zero and prints no
  result.

Exits non-zero on the first failed expectation.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def expect(ok: bool, message: str) -> None:
    if not ok:
        sys.exit(f"selftest FAILED: {message}")


def run_bench(cwd: Path, workload: str, trace: int):
    argv = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
            "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_output(workload: str, trace: int) -> None:
    proc = run_bench(ROOT, workload, trace)
    expect(proc.returncode == 0, f"{workload} trace {trace} exited {proc.returncode}: {proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{workload}: result keys {sorted(result)}")
    expect(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
           f"{workload} trace {trace}: {result['failed']} of {result['attempted']} failed")
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    want = {m["name"]: m["unit"] for m in listed}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    expect(got == want, f"{workload} trace {trace}: metrics {got} != {want}")
    for name, m in result["metrics"].items():
        expect(isinstance(m["value"], (int, float)) and math.isfinite(m["value"]),
               f"{workload}: {name} = {m['value']!r}")
    if not trace:
        for name in want:
            expect(result["metrics"][name]["value"] > 0, f"{workload}: {name} is not positive")
    print(f"ok  {workload} trace {trace}: {len(got)} metrics, {result['attempted']} operations")


def check_perturbation() -> None:
    sys.path.insert(0, str(HERE))
    import run

    run.import_memobs()
    import memobs
    import workloads

    wl = workloads.build("observe-hik", 7, "tiny", ROOT / ".bench_build")
    ops = wl.ops()
    for op in ops:
        if op.name == "nodal-l4":
            clean = op.run
            op.run = lambda clean=clean: (lambda ns: memobs.NodalSet(ns.zeros + 1e-6, ns.flags))(clean())
        if op.name == "constants-exp":
            clean = op.run
            op.run = lambda clean=clean: [dataclasses.replace(c, c_min=c.c_min * (1 + 1e-5))
                                          for c in clean()]
    wl.ops = lambda: ops
    result = run.run_pass(wl)
    attempted, failed = run.count([result])
    expect((attempted, failed) == (len(ops), 2),
           f"perturbed pass: {failed} of {attempted} failed, want 2 of {len(ops)}")
    print(f"ok  perturbed results counted: fail_frac = {failed}/{attempted}")


def check_without_sources() -> None:
    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for rel in SPEC["paths"]:
            shutil.copytree(ROOT / rel, bare / rel, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, SPEC["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0, "benchmark without sources exited 0")
    expect('"metrics"' not in proc.stdout, "benchmark without sources printed a result")
    print(f"ok  without sources: exit {proc.returncode}, no result")


def main() -> int:
    check_without_sources()
    check_perturbation()
    for w in SPEC["workloads"]:
        for trace in (0, 1):
            check_output(w["name"], trace)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
