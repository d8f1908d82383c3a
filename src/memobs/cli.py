"""Batch command-line front end.

One JSON config per run, one subcommand per experiment family:

    memobs <command> --config cfg.json [--out dir] [--threads n]
                     [--set key=value ...]

Artifacts are JSON and CSV files with a fixed field order and floats printed
with 17 significant digits, so identical configs produce byte-identical
files.  Every artifact embeds the sha256 of the effective config (file plus
--set overrides).  Timings and library versions go to run_meta.json, which
is metadata, not an artifact: it is the one file allowed to differ between
reruns.  ``--threads`` is accepted for compatibility, validated and recorded
in run_meta.json, but has no effect: every command runs on one thread.

Exit status: 0 success, 1 validation error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import platform
import sys
import time
from dataclasses import asdict, astuple, dataclass, fields
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .errors import NumericalError, ValidationError, flag, integer, items, obj, real
from .evolution import ModalCache, decomposition_residual, propagate
from .inverse_control import (
    ModeWitness,
    ObservationData,
    backward_uniqueness_certificate,
    impulse_control,
    reconstruct_initial,
    simulate_controlled,
    simulate_observations,
)
from .kernels import UniformGrid, kernel_from_spec
from .modal import (
    closed_form_exp,
    nodal_set_exp_closed,
    nodal_set_numeric,
    series_solution_grid,
    solve_modal_richardson,
    solve_modal_volterra,
)
from .sampling import (
    SamplingPlan,
    check_geometric_condition,
    check_kernel_nonvanishing,
    constants_table,
    probe_upper_bound,
)
from .spectral import SpectralBasis, SpectralField

ENV_OUT = "MEMOBS_OUT"
EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2


# ---------------------------------------------------------------------------
# deterministic serialization


def _fmt_float(v: float) -> str:
    """A float as JSON text: %.17g, or "nan", "inf" or "-inf" in quotes; a
    CSV cell is the same text without the quotes."""
    if math.isnan(v):
        return '"nan"'
    if math.isinf(v):
        return '"inf"' if v > 0 else '"-inf"'
    return "%.17g" % v


def _json_text(value, indent: int = 0) -> str:
    if isinstance(value, (np.floating, float)):
        return _fmt_float(float(value))
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, (np.integer, int)):
        return str(int(value))
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = ",\n".join(inner + _json_text(v, indent + 1) for v in value)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = ",\n".join(
            f"{inner}{json.dumps(str(k))}: {_json_text(v, indent + 1)}"
            for k, v in value.items()
        )
        return "{\n" + items + "\n" + pad + "}"
    raise ValidationError(f"cannot serialize value of type {type(value).__name__}")


def _csv_cell(v) -> str:
    if isinstance(v, (np.floating, float)):
        return _fmt_float(float(v)).strip('"')
    if v is None:
        return ""
    if isinstance(v, (np.integer, int)) and not isinstance(v, bool):
        return str(int(v))
    return str(v)


@dataclass
class Report:
    """One named result, rendered to <name>.json and/or <name>.csv."""

    name: str
    json_payload: object | None = None
    csv_header: list[str] | None = None
    csv_rows: list | None = None


def emit_report(
    results: list[Report],
    out_dir,
    config_sha: str | None = None,
) -> list[Path]:
    """Write the artifacts with stable ordering and float formatting."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for rep in results:
        if rep.json_payload is not None:
            payload = rep.json_payload
            if isinstance(payload, dict) and config_sha is not None:
                payload = {"config_sha256": config_sha, **payload}
            path = out / f"{rep.name}.json"
            path.write_text(_json_text(payload) + "\n", encoding="utf-8")
            written.append(path)
        if rep.csv_header is not None:
            lines = []
            if config_sha is not None:
                lines.append(f"# config_sha256={config_sha}")
            lines.append(",".join(rep.csv_header))
            for row in rep.csv_rows or []:
                lines.append(",".join(_csv_cell(c) for c in row))
            path = out / f"{rep.name}.csv"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            written.append(path)
    return written


# ---------------------------------------------------------------------------
# config handling


def _read_json(path, what: str):
    """The bytes of the JSON file ``path`` and their parsed value; ``what``
    names the file in error messages."""
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise ValidationError(f"cannot read {what} {path}: {exc}") from exc
    try:
        return blob, json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"{what} {path} is not valid JSON: {exc}") from exc


@dataclass
class ExperimentConfig:
    data: dict
    sha256: str
    out_dir: str
    threads: int

    @classmethod
    def load(cls, config_path, out_flag, threads, overrides):
        _, data = _read_json(config_path, "config")
        if not isinstance(data, dict):
            raise ValidationError("config root must be a JSON object")
        for item in overrides or []:
            _apply_override(data, item)
        sha = hashlib.sha256(
            json.dumps(data, sort_keys=True, separators=(",", ":")).encode("utf-8")
        ).hexdigest()
        out_dir = (
            out_flag
            or data.get("out")
            or os.environ.get(ENV_OUT)
            or "memobs-out"
        )
        if not isinstance(out_dir, str):
            raise ValidationError("out must be a directory path string")
        return cls(
            data=data,
            sha256=sha,
            out_dir=out_dir,
            threads=integer(threads, "--threads", lo=1),
        )


def _apply_override(data: dict, item: str) -> None:
    if "=" not in item:
        raise ValidationError(f"--set expects key=value, got {item!r}")
    key, raw = item.split("=", 1)
    parts = [p for p in key.split(".") if p]
    if not parts:
        raise ValidationError(f"--set has an empty key in {item!r}")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = data
    for p in parts[:-1]:
        nxt = node.get(p)
        if nxt is None:
            nxt = node[p] = {}
        if not isinstance(nxt, dict):
            raise ValidationError(f"--set path {key!r} crosses a non-object value")
        node = nxt
    node[parts[-1]] = value


def _get(sec, path, key, check, default=None, **bounds):
    """``sec[key]`` passed through a checker from ``errors``, or ``default``
    when the key is absent."""
    return check(sec[key], f"{path}.{key}", **bounds) if key in sec else default


def _given(**options) -> dict:
    """The options a config sets, as keyword arguments of a library call;
    an absent one (None) is left out, so the library's default holds."""
    return {k: v for k, v in options.items() if v is not None}


def _choice(sec, path, key, allowed, default):
    v = sec.get(key, default)
    if not isinstance(v, str) or v not in allowed:
        raise ValidationError(f"{path}.{key} must be one of {sorted(allowed)}")
    return v


def _read(path, reader, *args, **kwargs):
    """Call a library JSON reader, prefixing its errors with the config path."""
    try:
        return reader(*args, **kwargs)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def _check_closed_form(M, path: str) -> tuple[float, float]:
    """The kernel's (c, alpha) for M(t) = c exp(alpha t)."""
    form = M.exp_form()
    if form is None:
        raise ValidationError(
            f"{path}.method: the closed form exists only for kernels c exp(alpha t)"
        )
    return form


def _field_from_spec(basis: SpectralBasis, spec, path: str) -> SpectralField:
    obj(spec, path, optional={"mode", "coeffs"})
    if ("mode" in spec) == ("coeffs" in spec):
        raise ValidationError(f'{path} needs exactly one of "mode" or "coeffs"')
    if "mode" in spec:
        k = _get(spec, path, "mode", integer, lo=1)
        if k > basis.K:
            raise ValidationError(f"{path}.mode must be <= K = {basis.K}")
        coeffs = np.zeros(basis.K)
        coeffs[k - 1] = 1.0
    else:
        coeffs = _get(spec, path, "coeffs", items, each=real)
        if len(coeffs) != basis.K:
            raise ValidationError(f"{path}.coeffs must have K = {basis.K} entries")
    return SpectralField(basis, coeffs)


# ---------------------------------------------------------------------------
# command runners


def _run_modal(cfg, M):
    sec = obj(
        cfg["modal"], "modal", {"lam", "T"}, {"n_steps", "method", "richardson", "tol"}
    )
    lam = _get(sec, "modal", "lam", real, positive=True)
    T = _get(sec, "modal", "T", real, positive=True)
    n_steps = _get(sec, "modal", "n_steps", integer, default=2048, lo=8)
    method = _choice(sec, "modal", "method", {"march", "series", "closed"}, "march")
    richardson = _get(sec, "modal", "richardson", flag, default=True)
    tol = _get(sec, "modal", "tol", real, positive=True)
    if method == "march":
        if richardson:
            t, x = solve_modal_richardson(lam, M, T, n_steps)
        else:
            t, x = solve_modal_volterra(lam, M, T, n_steps)
    elif method == "series":
        grid = UniformGrid(n_steps, T)
        t = grid.nodes()
        x = series_solution_grid(lam, M, grid, **_given(tol=tol))
    else:
        t = UniformGrid(n_steps, T).nodes()
        x = closed_form_exp(lam, *_check_closed_form(M, "modal"), t)
    payload = {
        "command": "modal",
        "kernel": M.spec_dict(),
        "lam": lam,
        "T": T,
        "n_steps": n_steps,
        "method": method,
        "x_final": float(x[-1]),
        "sup_abs": float(np.max(np.abs(x))),
    }
    rows = list(zip(t.tolist(), x.tolist()))
    return [Report("modal", payload, ["t", "x"], rows)]


def _run_nodal(cfg, M):
    sec = obj(cfg["nodal"], "nodal", {"lam", "T_max"}, {"resolution", "method"})
    lam = _get(sec, "nodal", "lam", real, positive=True)
    T_max = _get(sec, "nodal", "T_max", real, positive=True)
    resolution = _get(sec, "nodal", "resolution", integer, lo=64)
    method = _choice(sec, "nodal", "method", {"numeric", "closed"}, "numeric")
    if method == "closed":
        ns = nodal_set_exp_closed(lam, *_check_closed_form(M, "nodal"), T_max)
    else:
        ns = nodal_set_numeric(lam, M, T_max, **_given(resolution=resolution))
    payload = {
        "command": "nodal",
        "kernel": M.spec_dict(),
        "lam": lam,
        "T_max": T_max,
        "method": method,
        "count": len(ns),
        **ns.to_json(),
    }
    return [Report("nodal", payload, ["zero", "flag"], list(ns))]


def _run_propagate(cfg, M, basis):
    sec = obj(cfg["propagate"], "propagate", {"t", "y0"})
    t = _get(sec, "propagate", "t", real, nonneg=True)
    y0 = _field_from_spec(basis, sec["y0"], "propagate.y0")
    out = propagate(y0, M, t)
    payload = {
        "command": "propagate",
        "t": t,
        "K": basis.K,
        "L": basis.L,
        "l2_norm": out.hs_norm(0.0),
        "h_minus4_norm": out.hs_norm(-4.0),
    }
    rows = [
        (k + 1, float(basis.eigenvalues[k]), float(out.coefficients[k]))
        for k in range(basis.K)
    ]
    return [Report("propagate", payload, ["k", "lam", "coeff"], rows)]


def _run_residual(cfg, M, basis):
    sec = obj(cfg["residual"], "residual", {"t"}, {"ks", "hlam_max"})
    t = _get(sec, "residual", "t", real, positive=True)
    hlam_max = _get(sec, "residual", "hlam_max", real, positive=True)
    ks = _get(sec, "residual", "ks", items, each=integer, lo=1)
    table = decomposition_residual(M, t, basis, ks=ks, **_given(hlam_max=hlam_max))
    payload = {
        "command": "residual",
        "t": t,
        "kernel_at_t": float(M(t)),
        "slope": table.slope,
        "sup_lambda2_x": table.sup_lambda2_x,
    }
    return [Report("residual", payload, ["k", "lam", "x", "residual"], table.rows)]


def _run_check_plan(cfg, M, basis, plan):
    nonvanishing, active = check_kernel_nonvanishing(plan, M)
    verdict = check_geometric_condition(plan, M, basis.L)
    payload = {
        "command": "check-plan",
        "m": plan.m,
        "times": plan.times,
        "kernel_nonvanishing": nonvanishing,
        "active_instants": active,
        "verdict": verdict.kind,
        "uncovered_intervals": [
            {"a": float(iv[0]), "b": float(iv[1])} for iv in verdict.uncovered_intervals
        ],
        "uncovered_points": [float(p) for p in verdict.uncovered_points],
    }
    return [Report("plan_check", payload)]


def _run_constants(cfg, M, basis, plan):
    sec = obj(cfg.get("constants", {}), "constants", optional={"K_list"})
    K_list = _get(sec, "constants", "K_list", items, [basis.K], each=integer, lo=1)
    table = constants_table(plan, M, basis, K_list)
    entries = [asdict(c) for c in table]
    payload = {"command": "constants", "m": plan.m, "entries": entries}
    header = ["K", "c_min", "c_max", "lower_bracket", "upper_bracket"]
    rows = [[e[h] for h in header] for e in entries]
    return [Report("constants", payload, header, rows)]


def _run_probe(cfg, M, basis, plan):
    sec = obj(cfg["probe"], "probe", {"x0", "radii"})
    x0 = _get(sec, "probe", "x0", real)
    radii = _get(sec, "probe", "radii", items, each=real, positive=True)
    result = probe_upper_bound(plan, M, basis, x0, radii)
    payload = {"command": "probe", **asdict(result)}
    return [Report("probe", payload, ["radius", "ratio"], result.rows)]


def _run_certify(cfg, M, basis):
    sec = obj(cfg["certify"], "certify", {"times"}, {"K", "tol"})
    times = _get(sec, "certify", "times", items, each=real, positive=True)
    K = _get(sec, "certify", "K", integer, lo=1)
    tol = _get(sec, "certify", "tol", real, positive=True)
    cert = backward_uniqueness_certificate(times, M, basis, **_given(K=K, tol=tol))
    payload = {"command": "certify", **cert.to_json()}
    header = [f.name for f in fields(ModeWitness)]
    rows = [astuple(w) for w in cert.modes]
    return [Report("certificate", payload, header, rows)]


def _run_reconstruct(cfg, M, basis, plan):
    sec = obj(
        cfg["reconstruct"],
        "reconstruct",
        optional={"y0", "data_file", "samples_per_unit", "sigma", "seed", "K", "reg"},
    )
    has_y0 = "y0" in sec
    has_file = "data_file" in sec
    if has_y0 == has_file:
        raise ValidationError(
            'reconstruct needs exactly one of "y0" or "data_file"'
        )
    K = _get(sec, "reconstruct", "K", integer, lo=1)
    reg = _get(sec, "reconstruct", "reg", real, nonneg=True)
    cache = ModalCache()
    reports = []
    truth = None
    data_sha = None
    if has_y0:
        truth = _field_from_spec(basis, sec["y0"], "reconstruct.y0")
        spu = _get(sec, "reconstruct", "samples_per_unit", integer, lo=16)
        sigma = _get(sec, "reconstruct", "sigma", real, nonneg=True)
        seed = _get(sec, "reconstruct", "seed", integer, lo=0)
        options = _given(samples_per_unit=spu, sigma=sigma, seed=seed)
        data = simulate_observations(truth, plan, M, cache=cache, **options)
        reports.append(Report("observations", data.to_json()))
    else:
        path = sec["data_file"]
        if not isinstance(path, str):
            raise ValidationError("reconstruct.data_file must be a path string")
        blob, raw = _read_json(path, "data_file")
        data_sha = hashlib.sha256(blob).hexdigest()
        if isinstance(raw, dict):
            raw.pop("config_sha256", None)  # stamp added by the artifact writer
        data = _read(
            "reconstruct.data_file", ObservationData.from_json, raw, L=basis.L
        )
        if data.plan != plan:
            raise ValidationError("reconstruct.data_file holds a different plan")
    result = reconstruct_initial(data, M, basis, cache=cache, **_given(K=K, reg=reg))
    sub = result.field.basis
    payload = {
        "command": "reconstruct",
        "K": sub.K,
        "reg": result.reg,
        "sigma": data.sigma,
        "seed": data.seed,
        "condition": result.condition,
        "residual": result.residual,
        "data_norm": result.data_norm,
    }
    if data_sha is not None:
        payload["data_sha256"] = data_sha
    header = ["k", "lam", "recovered"]
    rows = [
        [k + 1, float(sub.eigenvalues[k]), float(result.coefficients[k])]
        for k in range(sub.K)
    ]
    if truth is not None:
        ref = SpectralField(sub, truth.coefficients[: sub.K])
        denom = ref.hs_norm(-4.0)
        if denom > 0:
            payload["relative_h_minus4_error"] = (result.field - ref).hs_norm(
                -4.0
            ) / denom
        l2 = ref.hs_norm(0.0)
        if l2 > 0:
            payload["relative_l2_error"] = (result.field - ref).hs_norm(0.0) / l2
        header.append("true")
        for k in range(sub.K):
            rows[k].append(float(truth.coefficients[k]))
    reports.append(Report("reconstruction", payload, header, rows))
    return reports


def _run_control(cfg, M, basis, plan):
    sec = obj(
        cfg["control"], "control", {"y0", "y1", "T"}, {"K", "rank_rtol", "verify"}
    )
    T = _get(sec, "control", "T", real, positive=True)
    K = _get(sec, "control", "K", integer, lo=1)
    rank_rtol = _get(sec, "control", "rank_rtol", real, positive=True)
    verify = _get(sec, "control", "verify", flag, default=True)
    y0 = _field_from_spec(basis, sec["y0"], "control.y0")
    y1 = _field_from_spec(basis, sec["y1"], "control.y1")
    result = impulse_control(y0, y1, plan, T, M, **_given(K=K, rank_rtol=rank_rtol))
    payload = {
        "command": "control",
        "T": T,
        "K": result.K,
        "energy": result.energy,
        "cost": result.cost,
        "duality_gap": abs(result.energy - result.cost),
        "rank": result.rank,
        "unreachable_modes": list(result.unreachable_modes),
        "reach_residual": result.reach_residual,
        "target_reachable": result.target_reachable,
        "notes": list(result.notes),
        "achieved": result.achieved.coefficients.tolist(),
    }
    if verify:
        sim = simulate_controlled(y0, result, M)
        target = y1.coefficients[: result.K]
        denom = max(float(np.linalg.norm(target)), 1e-300)
        payload["simulated"] = sim.coefficients.tolist()
        payload["closed_loop_error_l2"] = (
            float(np.linalg.norm(sim.coefficients - target)) / denom
        )
    rows = []
    for j, imp in enumerate(result.impulses):
        for k in range(result.K):
            rows.append(
                (
                    j,
                    imp.tau,
                    imp.t,
                    k + 1,
                    float(imp.profile[k]),
                    float(imp.applied[k]),
                )
            )
    header = ["j", "tau", "t", "k", "profile", "applied"]
    return [Report("control", payload, header, rows)]


_COMMANDS = {
    "modal": (_run_modal, {"kernel", "modal"}, set()),
    "nodal": (_run_nodal, {"kernel", "nodal"}, set()),
    "propagate": (_run_propagate, {"basis", "kernel", "propagate"}, set()),
    "residual": (_run_residual, {"basis", "kernel", "residual"}, set()),
    "check-plan": (_run_check_plan, {"basis", "kernel", "plan"}, set()),
    "constants": (_run_constants, {"basis", "kernel", "plan"}, {"constants"}),
    "probe": (_run_probe, {"basis", "kernel", "plan", "probe"}, set()),
    "certify": (_run_certify, {"basis", "kernel", "certify"}, set()),
    "reconstruct": (
        _run_reconstruct,
        {"basis", "kernel", "plan", "reconstruct"},
        set(),
    ),
    "control": (_run_control, {"basis", "kernel", "plan", "control"}, set()),
}


def run_command(name: str, config: ExperimentConfig) -> int:
    """Dispatch one command, write its artifacts and run metadata."""
    if name not in _COMMANDS:
        raise ValidationError(f"unknown command {name!r}")
    runner, required, optional = _COMMANDS[name]
    cfg = obj(config.data, "config", required, optional | {"out"})
    t0 = time.perf_counter()
    shared = {"M": _read("kernel", kernel_from_spec, cfg["kernel"])}
    if "basis" in required:
        sec = obj(cfg["basis"], "basis", {"L", "K"})
        shared["basis"] = SpectralBasis(
            _get(sec, "basis", "L", real, positive=True),
            _get(sec, "basis", "K", integer, lo=1),
        )
    if "plan" in required:
        shared["plan"] = _read(
            "plan", SamplingPlan.from_json, cfg["plan"], L=shared["basis"].L
        )
    t_run = time.perf_counter()
    reports = runner(cfg, **shared)
    t_emit = time.perf_counter()
    paths = emit_report(reports, config.out_dir, config_sha=config.sha256)
    t_end = time.perf_counter()
    meta = {
        "command": name,
        "config_sha256": config.sha256,
        "threads": config.threads,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "memobs": __version__,
        },
        "timings": {
            "total_s": t_end - t0,
            "run_s": t_emit - t_run,
            "emit_s": t_end - t_emit,
        },
        "artifacts": sorted(p.name for p in paths),
    }
    meta_path = Path(config.out_dir) / "run_meta.json"
    meta_path.write_text(_json_text(meta) + "\n", encoding="utf-8")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValidationError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built on the first call and reused by every
    later ``main`` call in the process.  Parsing leaves it unchanged: each
    call fills a new namespace, and ``--set`` appends to a copy of its
    default list."""
    parser = _Parser(prog="memobs", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument(
            "--threads",
            type=int,
            default=1,
            help="accepted for compatibility and recorded in run_meta.json; no effect",
        )
        p.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config entry (dotted path, JSON value)",
        )
    return parser


def main(argv=None) -> int:
    try:
        ns = _build_parser().parse_args(argv)
        config = ExperimentConfig.load(ns.config, ns.out, ns.threads, ns.set)
        return run_command(ns.command, config)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
