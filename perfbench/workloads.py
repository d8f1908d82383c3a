"""The benchmark's workloads: seeded inputs, operations and output checks.

A workload is built once from a seed (that is the set-up the benchmark
times) and then hands out, for every pass, a fresh list of operations that
run in sequence.  Operations call memobs through module attributes at call
time, so a traced pass sees the wrapped functions.  memobs receives only the
generated inputs; each operation's check compares its output with an oracle
from ``oracles`` and runs outside the timed span.

Why these three workloads (see ``WORKLOADS`` for the sizes):

* ``observe-hik`` -- exponential kernels at the highest K of the three, so
  a few long marches dominate and a faster exponential-family march shows
  here; instants are few, so reusing marches across instants barely matters.
* ``many-instants`` -- a seeded tabulated kernel with many instants on
  distinct partial regions, so many short marches repeat once per instant
  and the jump march of the controlled simulation runs; the kernel is
  tabulated, so an exponential-only recurrence should not move it.
* ``cli-batch`` -- the ten CLI commands on small configs at one and at two
  threads, so config parsing, artifact writing and the thread pool are a
  visible share of the time.
"""

from __future__ import annotations

import copy
import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import memobs as mo
import memobs.cli
import oracles as orc
from oracles import require, within

PI = math.pi

# Relative tolerances of the oracle checks, each a margin over the error
# measured at the benchmark's sizes; never tuned to hide a wrong output.
TOL_MARCH = 1e-6  # Richardson march against the exponential closed form
TOL_TAB = 1e-6  # tabulated kernel against the closed form of its samples
TOL_SERIES = 1e-4  # second-order series solution, 512 steps on [0, 2]
TOL_ZERO = 1e-8  # nodal zeros, criterion 02
TOL_ROUND = 1e-9  # quantities equal up to rounding

SIZES = {
    "full": {"hik_K": 32, "probe_K": 32, "many_K": 10, "many_m": 6},
    "tiny": {"hik_K": 8, "probe_K": 24, "many_K": 4, "many_m": 3},
}

# Input sizes per workload at full size, recorded in the baseline next to
# the measured max n (modal.max_n of a traced run).
WORKLOADS = {
    "observe-hik": {"K": "32; probe 32 on L = pi/2", "m": "1-2", "max_lambda": 4096.0},
    "many-instants": {"K": 10, "m": 6, "max_lambda": 100.0},
    "cli-batch": {"K": "4-16", "m": "1-2", "max_lambda": 256.0},
}


@dataclass
class Op:
    """One operation: ``run`` is timed, ``check(result)`` is not and returns
    the worst oracle error it saw (raising ``CheckError`` on a wrong output)."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], float]


def _rel(got: float, want: float) -> float:
    return abs(got - want) / abs(want) if want != 0 else abs(got)


def _check_constants(rows, ref, tol: float, what: str) -> float:
    """rows: (K, c_min, c_max) per truncation level; ref: oracle pairs."""
    err = 0.0
    for (K, c_min, c_max), (want_min, want_max) in zip(rows, ref):
        require(0 <= c_min <= c_max, f"{what}: c_min {c_min} outside [0, c_max] at K={K}")
        err = max(err, _rel(c_min, want_min), _rel(c_max, want_max))
    return within(err, tol, f"{what} constants")


def _rows(table):
    return [(c.K, c.c_min, c.c_max) for c in table]


def _nodal_op(lam: float, M, T_max: float, c: float, alpha: float, tol: float) -> Op:
    """nodal_set_numeric on (0, T_max] against the closed-form ladder of
    c exp(alpha t).

    Only the sign-change zeros are compared: once the mode has decayed to
    about 1e-7 of its sup, nodal_set_numeric also flags grid points a few
    steps from a true zero as suspected tangential zeros, which this ODE
    does not have.
    """

    def check(ns):
        got = ns.sign_change_zeros
        want = mo.nodal_set_exp_closed(lam, c, alpha, T_max).zeros
        require(len(got) == len(want), f"lam={lam}: {len(got)} zeros, want {len(want)}")
        err = float(np.max(np.abs(got - want))) if len(want) else 0.0
        return within(err, tol, f"nodal zeros at lam={lam}")

    return Op(f"nodal-l{lam:g}", lambda: mo.nodal_set_numeric(lam, M, T_max), check)


# ---------------------------------------------------------------------------
# observe-hik


class ObserveHik:
    """Criteria 05, 07, 06 and 02 on seeded exponential kernels.

    K is 32 where the criteria use 64 and 84, so that a pass takes seconds
    and a run holds several passes.
    """

    T_NODAL = 10.0

    def __init__(self, rng: np.random.Generator, size: dict):
        K = self.K = size["hik_K"]
        self.basis = mo.SpectralBasis(PI, K)
        self.K_list = [K // 2, K]
        self.c5, self.a5 = rng.uniform(0.8, 1.2), rng.uniform(-0.3, 0.0)
        self.times5 = [0.5 * rng.uniform(0.99, 1.01), 0.8 * rng.uniform(0.99, 1.01)]
        self.plan5 = mo.SamplingPlan([(t, [[0.0, PI]]) for t in self.times5])
        self.M5 = mo.ExponentialKernel(self.c5, self.a5)

        self.c7 = rng.uniform(3.6, 4.4)
        self.M7 = mo.ExponentialKernel(self.c7, 0.0)
        t0 = 0.4 * rng.uniform(0.99, 1.01)
        self.pair = [t0, t0 + 0.5 * PI / math.sqrt(self.c7)]
        self.nodal_instant = float(mo.nodal_set_exp_closed(1.0, self.c7, 0.0, 2.0).zeros[0])

        self.Kp = size["probe_K"]
        self.Lp = PI / 2.0
        self.probe_basis = mo.SpectralBasis(self.Lp, self.Kp)
        self.c6 = rng.uniform(0.9, 1.1)
        self.M6 = mo.ExponentialKernel(self.c6, 0.0)
        # The uncovered gap is 0.8 wide, not 0.6 as in criterion 06: 32 modes
        # cannot resolve that criterion's smallest ball, so the radii halve
        # from 0.2 to 0.05 and the verdict (ratio below 0.1) still holds.
        centre = 0.8 + rng.uniform(-0.02, 0.02)
        half = 0.4
        lo, hi = centre - half, centre + half
        self.plan6_raw = [
            (1.0 * rng.uniform(0.99, 1.01), [(0.0, lo)]),
            (1.4 * rng.uniform(0.99, 1.01), [(hi, self.Lp)]),
        ]
        self.plan6 = mo.SamplingPlan([(t, [list(iv) for iv in ivs]) for t, ivs in self.plan6_raw])
        self.x0 = centre
        self.radii = [half / 2, half / 4, half / 8]
        self.x_ref = 0.5 * lo

        self.c2, self.a2 = rng.uniform(4.5, 5.5), rng.uniform(-0.1, 0.1)
        self.M2 = mo.ExponentialKernel(self.c2, self.a2)

    def _exp_modes(self, c, a):
        return lambda lam, t: orc.exp_mode(lam, c, a, t)

    def ops(self) -> list[Op]:
        K_list, basis = self.K_list, self.basis
        full = [(t, [(0.0, PI)]) for t in self.times5]

        def check_exp(table):
            S = orc.scaled_form(PI, self.K, full, self._exp_modes(self.c5, self.a5))
            err = _check_constants(_rows(table), orc.constants(S, K_list), TOL_MARCH,
                                   "exponential")
            change = abs(table[1].c_min - table[0].c_min) / table[0].c_min
            require(change < 0.10, f"c_min changes {change:.2%} from K={K_list[0]} to {K_list[1]}")
            return err

        zero_list = [min(8, self.K // 2), self.K]

        def check_zero(table):
            S = orc.scaled_form(PI, self.K, full, lambda lam, t: float(orc.zero_mode(lam, t)))
            ref = orc.constants(S, zero_list)
            err = max(_rel(c.c_max, r[1]) for c, r in zip(table, ref))
            within(err, TOL_MARCH, "memoryless c_max")
            ratio = table[1].c_min / table[0].c_min
            require(ratio < 1e-6, f"memoryless c_min ratio {ratio:.2e} >= 1e-6")
            return err

        def check_witnesses(cert):
            err = 0.0
            for w in cert.modes:
                if w.witness_time is not None:
                    want = orc.exp_mode(w.lam, self.c7, 0.0, w.witness_time)
                    err = max(err, abs(w.value - want) / w.sup)
            return within(err, TOL_MARCH, "certificate witness")

        def check_pair(cert):
            require(cert.certified, f"pair certificate failed at {cert.failing_modes}")
            return check_witnesses(cert)

        def check_nodal_instant(cert):
            require(cert.failing_modes == (1,), f"nodal instant fails {cert.failing_modes}")
            return check_witnesses(cert)

        def probe():
            cache = mo.ModalCache(hlam_max=1.6)
            gap = mo.probe_upper_bound(self.plan6, self.M6, self.probe_basis, self.x0,
                                       self.radii, cache=cache)
            ref = mo.probe_upper_bound(self.plan6, self.M6, self.probe_basis, self.x_ref,
                                       [self.radii[-1]], cache=cache)
            return gap, ref

        def check_probe(result):
            gap, ref = result
            modes = self._exp_modes(self.c6, 0.0)
            want = [orc.probe_ratio(self.Lp, self.Kp, self.plan6_raw, modes, x, r)
                    for x, r in [(self.x0, r) for r in self.radii] + [(self.x_ref, self.radii[-1])]]
            err = within(orc.rel_err(list(gap.ratios) + list(ref.ratios), want),
                         TOL_MARCH, "probe ratios")
            ratios = gap.ratios
            require(all(b <= 1.05 * a for a, b in zip(ratios, ratios[1:])),
                    f"probe ratios not monotone: {ratios}")
            frac = ratios[-1] / ref.ratios[0]
            require(frac < 0.1, f"uncovered / covered probe ratio {frac:.3f} >= 0.1")
            return err

        return [
            Op("constants-exp", lambda: mo.constants_table(
                self.plan5, self.M5, basis, K_list, cache=mo.ModalCache()), check_exp),
            Op("constants-zero", lambda: mo.constants_table(
                self.plan5, mo.ZeroKernel(), basis, zero_list, cache=mo.ModalCache()), check_zero),
            Op("certify-pair", lambda: mo.backward_uniqueness_certificate(
                self.pair, self.M7, basis, cache=mo.ModalCache()), check_pair),
            Op("certify-nodal", lambda: mo.backward_uniqueness_certificate(
                [self.nodal_instant], self.M7, basis, cache=mo.ModalCache()), check_nodal_instant),
            Op("probe", probe, check_probe),
            *(_nodal_op(lam, self.M2, self.T_NODAL, self.c2, self.a2, TOL_ZERO)
              for lam in (1.0, 4.0, 9.0)),
        ]


# ---------------------------------------------------------------------------
# many-instants


class ManyInstants:
    """Constants, reconstruction, control and nodal sets on a tabulated
    kernel sampled from c exp(alpha t), with many instants."""

    T = 1.0
    T_MAX = 6.0

    def __init__(self, rng: np.random.Generator, size: dict):
        K, m = self.K, self.m = size["many_K"], size["many_m"]
        L = self.L = PI
        self.basis = mo.SpectralBasis(L, K)
        self.c, self.alpha = rng.uniform(1.0, 3.0), rng.uniform(-1.0, -0.2)
        grid = np.linspace(0.0, self.T_MAX, 1201)
        self.M = mo.TabulatedKernel(grid, self.c * np.exp(self.alpha * grid))
        # Instants on a 1/40 grid of [0, T], so the impulse times of the
        # control fall on the jump grid of simulate_controlled.
        ticks = np.sort(rng.choice(np.arange(4, 39), size=m, replace=False))
        times = [self.T * int(i) / 40 for i in ticks]
        # One region per instant, centred on a shuffled stratum of (0, L) and
        # wider than its stratum, so neighbours overlap and the union covers.
        centres = L * (rng.permutation(m) + 0.5) / m
        halves = L / m * rng.uniform(0.6, 0.9, m)
        self.plan_raw = [
            (t, [(max(0.0, c - h), min(L, c + h))]) for t, c, h in zip(times, centres, halves)
        ]
        self.plan = mo.SamplingPlan([(t, [list(iv) for iv in ivs]) for t, ivs in self.plan_raw])
        k = np.arange(1, K + 1)
        self.y0 = mo.SpectralField(self.basis, 3.0 * rng.uniform(0.5, 1.5, K) / k**2)
        self.sigma = 1e-3
        self.noise_seed = int(rng.integers(1, 2**31))
        self.y0_ctrl = mo.SpectralField(self.basis, 0.1 * rng.standard_normal(K) / k**2)
        target = 0.1 * rng.standard_normal(K) / k**2
        target[0] = 1.0
        self.y1 = mo.SpectralField(self.basis, target)

    def _modes(self, lam, t):
        return orc.exp_mode(lam, self.c, self.alpha, t)

    def ops(self) -> list[Op]:
        K_list = [self.K // 2, self.K]
        lams = orc.eigenvalues(self.L, self.K)
        state: dict[str, Any] = {"cache": mo.ModalCache()}

        def check_constants(table):
            S = orc.scaled_form(self.L, self.K, self.plan_raw, self._modes)
            return _check_constants(_rows(table), orc.constants(S, K_list), TOL_TAB, "tabulated")

        def simulate():
            state["data"] = mo.simulate_observations(
                self.y0, self.plan, self.M, sigma=self.sigma, seed=self.noise_seed,
                cache=state["cache"])
            return state["data"]

        def check_simulate(data):
            sq, n = 0.0, 0
            for (t, _), block in zip(self.plan_raw, data.blocks):
                E = math.sqrt(2.0 / self.L) * np.sin(np.outer(block.xs, np.arange(1, self.K + 1)) * PI / self.L)
                clean = E @ (self.y0.coefficients * np.array([self._modes(lam, t) for lam in lams]))
                sq += float(np.sum((block.values - clean) ** 2))
                n += block.values.size
            spread = math.sqrt(sq / n) / self.sigma
            require(0.8 < spread < 1.25, f"noise rms is {spread:.3f} sigma over {n} samples")
            return 0.0

        def reconstruct():
            return mo.reconstruct_initial(state["data"], self.M, self.basis, reg=1e-6,
                                          cache=state["cache"])

        def check_reconstruct(rec):
            err = (rec.field - self.y0).hs_norm(-4) / self.y0.hs_norm(-4)
            within(err, 1e-2, "noisy reconstruction, relative H^-4")
            return 0.0  # a noise level, not an error of the computation

        def control():
            state["control"] = mo.impulse_control(self.y0_ctrl, self.y1, self.plan, self.T,
                                                  self.M, cache=mo.ModalCache())
            return state["control"]

        def check_control(res):
            within(abs(res.energy - res.cost) / max(res.energy, 1e-300), TOL_ROUND, "duality gap")
            final = np.array([self._modes(lam, self.T) for lam in lams]) * self.y0_ctrl.coefficients
            for t, ivs in self.plan_raw:
                x = np.array([self._modes(lam, t) for lam in lams])
                final = final + x * (orc.overlap(self.L, self.K, ivs) @ (x * res.phi))
            return within(orc.rel_err(res.achieved.coefficients, final), TOL_TAB, "achieved state")

        def check_closed_loop(sim):
            return within(orc.rel_err(sim.coefficients, state["control"].achieved.coefficients),
                          1e-6, "closed loop against achieved state")

        return [
            Op("constants", lambda: mo.constants_table(
                self.plan, self.M, self.basis, K_list, cache=mo.ModalCache()), check_constants),
            Op("simulate-observations", simulate, check_simulate),
            Op("reconstruct", reconstruct, check_reconstruct),
            Op("impulse-control", control, check_control),
            Op("simulate-controlled", lambda: mo.simulate_controlled(
                self.y0_ctrl, state["control"], self.M), check_closed_loop),
            *(_nodal_op(lam, self.M, self.T_MAX, self.c, self.alpha, TOL_TAB)
              for lam in (1.0, 4.0)),
        ]


# ---------------------------------------------------------------------------
# cli-batch

EXP1 = {"kind": "exponential", "c": 1.0, "alpha": 0.0}
EXP4 = {"kind": "exponential", "c": 4.0, "alpha": 0.0}
BASIS8 = {"L": PI, "K": 8}
FULL_PLAN = {"instants": [{"t": 0.5, "region": [[0.0, PI]]}, {"t": 0.8, "region": [[0.0, PI]]}]}

# The configs of the CLI tests, plus the series method of ``modal``.
CLI_CONFIGS = {
    "modal": {
        "kernel": EXP4,
        "modal": {"lam": 4.0, "T": 2.0, "n_steps": 512, "method": "march"},
    },
    "modal-series": {
        "kernel": EXP4,
        "modal": {"lam": 4.0, "T": 2.0, "n_steps": 512, "method": "series"},
    },
    "nodal": {
        "kernel": EXP4,
        "nodal": {"lam": 4.0, "T_max": 6.0, "method": "closed"},
    },
    "propagate": {
        "basis": BASIS8,
        "kernel": {"kind": "constant", "value": -1.0},
        "propagate": {"t": 0.5, "y0": {"mode": 1}},
    },
    "residual": {
        "basis": {"L": PI, "K": 16},
        "kernel": EXP1,
        "residual": {"t": 1.0},
    },
    "check-plan": {
        "basis": BASIS8,
        "kernel": EXP1,
        "plan": {"instants": [{"t": 0.5, "region": [[0.0, 2.0]]},
                              {"t": 0.8, "region": [[1.5, PI]]}]},
    },
    "constants": {
        "basis": BASIS8,
        "kernel": EXP1,
        "plan": FULL_PLAN,
        "constants": {"K_list": [4, 8]},
    },
    "probe": {
        "basis": {"L": PI, "K": 16},
        "kernel": EXP1,
        "plan": {"instants": [{"t": 0.5, "region": [[0.0, 1.0]]},
                              {"t": 0.8, "region": [[2.0, PI]]}]},
        "probe": {"x0": 1.5, "radii": [0.2, 0.1]},
    },
    "certify": {
        "basis": BASIS8,
        "kernel": EXP4,
        "certify": {"times": [0.4, 1.1853981633974482]},
    },
    "reconstruct": {
        "basis": BASIS8,
        "kernel": EXP1,
        "plan": FULL_PLAN,
        "reconstruct": {"y0": {"mode": 1}, "sigma": 0.001, "seed": 3, "reg": 1e-8},
    },
    "control": {
        "basis": {"L": PI, "K": 4},
        "kernel": EXP1,
        "plan": {"instants": [{"t": 0.3, "region": [[0.0, PI]]},
                              {"t": 0.6, "region": [[0.0, PI]]}]},
        "control": {"y0": {"coeffs": [0.0, 0.0, 0.0, 0.0]}, "y1": {"mode": 1}, "T": 1.0},
    },
}
CLI_COMMAND = {"modal-series": "modal"}
THREADS = (1, 2)
CLI_OPS = [f"{name}.t{t}" for name in CLI_CONFIGS for t in THREADS]


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _read_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", comments="#", skiprows=2, ndmin=2)


def _artifacts(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != "run_meta.json"}


def _check_modal(out, tol):
    rows = _read_csv(out / "modal.csv")
    return within(orc.rel_err(rows[:, 1], orc.exp_mode(4.0, 4.0, 0.0, rows[:, 0])), tol,
                  f"modal {out.parent.name}")


def _check_nodal(out):
    doc = _read_json(out / "nodal.json")
    want = mo.nodal_set_exp_closed(4.0, 4.0, 0.0, 6.0).zeros
    require(doc["count"] == len(want) > 0, f"nodal count {doc['count']}")
    return within(orc.rel_err(doc["zeros"], want), TOL_ROUND, "nodal")


def _check_propagate(out):
    rows = _read_csv(out / "propagate.csv")
    want = np.zeros(8)
    want[0] = orc.constant_mode(1.0, -1.0, 0.5)
    return within(orc.rel_err(rows[:, 2], want), TOL_MARCH, "propagate")


def _check_residual(out):
    doc = _read_json(out / "residual.json")
    require(doc["slope"] <= -0.8, f"residual slope {doc['slope']:.3f} > -0.8")
    rows = _read_csv(out / "residual.csv")
    want = [orc.exp_mode(lam, 1.0, 0.0, 1.0) for lam in rows[:, 1]]
    return within(orc.rel_err(rows[:, 2], want), TOL_MARCH, "residual modal values")


def _check_plan(out):
    doc = _read_json(out / "plan_check.json")
    require(doc["verdict"] == "Strong" and doc["kernel_nonvanishing"], f"verdict {doc['verdict']}")
    return 0.0


def _exp1(lam, t):
    return orc.exp_mode(lam, 1.0, 0.0, t)


def _check_constants_cli(out):
    doc = _read_json(out / "constants.json")
    S = orc.scaled_form(PI, 8, [(0.5, [(0.0, PI)]), (0.8, [(0.0, PI)])], _exp1)
    rows = [(e["K"], e["c_min"], e["c_max"]) for e in doc["entries"]]
    return _check_constants(rows, orc.constants(S, [4, 8]), TOL_MARCH, "cli")


def _check_probe(out):
    doc = _read_json(out / "probe.json")
    plan = [(0.5, [(0.0, 1.0)]), (0.8, [(2.0, PI)])]
    want = [orc.probe_ratio(PI, 16, plan, _exp1, 1.5, r) for r in (0.2, 0.1)]
    ratios = doc["ratios"]
    require(ratios[1] <= 1.05 * ratios[0], f"probe ratios not monotone: {ratios}")
    return within(orc.rel_err(ratios, want), TOL_MARCH, "probe ratios")


def _check_certify(out):
    doc = _read_json(out / "certificate.json")
    require(doc["certified"], f"certificate failed at {doc['failing_modes']}")
    err = max(abs(w["value"] - orc.exp_mode(w["lam"], 4.0, 0.0, w["witness_time"])) / w["sup"]
              for w in doc["modes"])
    return within(err, TOL_MARCH, "certificate witnesses")


def _check_reconstruct(out):
    doc = _read_json(out / "reconstruction.json")
    within(doc["relative_h_minus4_error"], 1e-2, "cli reconstruction")
    return 0.0  # a noise level, not an error of the computation


def _check_control(out):
    doc = _read_json(out / "control.json")
    within(doc["closed_loop_error_l2"], 1e-6, "cli closed loop")
    return within(orc.rel_err(doc["simulated"], doc["achieved"]), 1e-6, "simulated vs achieved")


CLI_CHECKS = {
    "modal": lambda out: _check_modal(out, TOL_MARCH),
    "modal-series": lambda out: _check_modal(out, TOL_SERIES),
    "nodal": _check_nodal,
    "propagate": _check_propagate,
    "residual": _check_residual,
    "check-plan": _check_plan,
    "constants": _check_constants_cli,
    "probe": _check_probe,
    "certify": _check_certify,
    "reconstruct": _check_reconstruct,
    "control": _check_control,
}


class CliBatch:
    """Every CLI command run in-process through ``memobs.cli.main``."""

    def __init__(self, rng: np.random.Generator, size: dict, workdir: Path):
        configs = copy.deepcopy(CLI_CONFIGS)
        configs["reconstruct"]["reconstruct"]["seed"] = int(rng.integers(1, 2**31))
        self.workdir = workdir
        (workdir / "configs").mkdir(parents=True, exist_ok=True)
        self.paths = {}
        for name, cfg in configs.items():
            path = workdir / "configs" / f"{name}.json"
            path.write_text(json.dumps(cfg), encoding="utf-8")
            self.paths[name] = path

    def ops(self) -> list[Op]:
        ops = []
        for name, path in self.paths.items():
            command = CLI_COMMAND.get(name, name)
            for threads in THREADS:
                out = self.workdir / "out" / name / f"t{threads}"
                argv = [command, "--config", str(path), "--out", str(out),
                        "--threads", str(threads)]
                ops.append(Op(f"{name}.t{threads}", functools.partial(_run_cli, argv, out),
                              functools.partial(_check_cli, name, threads, out)))
        return ops


def _run_cli(argv, out):
    code = mo.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"memobs {' '.join(argv)} exited with {code}")
    return out


def _check_cli(name, threads, out, _result):
    err = CLI_CHECKS[name](out)
    if threads != THREADS[0]:
        first = out.parent / f"t{THREADS[0]}"
        require(_artifacts(out) == _artifacts(first),
                f"{name}: artifacts differ between --threads {THREADS[0]} and {threads}")
    return err


def build(name: str, seed: int, size: str, workdir: Path):
    """Generate the inputs of one workload from its seed."""
    rng = np.random.default_rng([seed % 2**63, list(WORKLOADS).index(name)])
    sizes = SIZES[size]
    if name == "observe-hik":
        return ObserveHik(rng, sizes)
    if name == "many-instants":
        return ManyInstants(rng, sizes)
    if name == "cli-batch":
        return CliBatch(rng, sizes, workdir)
    raise ValueError(f"unknown workload {name!r}")
