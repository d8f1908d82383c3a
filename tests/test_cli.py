import contextlib
import io
import json
import math
import os
import stat
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memobs import (
    ModalCache,
    SamplingPlan,
    SpectralBasis,
    SpectralField,
    kernel_from_spec,
    simulate_observations,
)
from memobs import cli
from memobs.cli import main

PI = math.pi
EXP1 = {"kind": "exponential", "c": 1.0, "alpha": 0.0}
EXP4 = {"kind": "exponential", "c": 4.0, "alpha": 0.0}
BASIS8 = {"L": PI, "K": 8}
FULL_PLAN = {
    "instants": [
        {"t": 0.5, "region": [[0.0, PI]]},
        {"t": 0.8, "region": [[0.0, PI]]},
    ]
}

CONFIGS = {
    "modal": {
        "kernel": EXP4,
        "modal": {"lam": 4.0, "T": 2.0, "n_steps": 512, "method": "march"},
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
        "plan": {
            "instants": [
                {"t": 0.5, "region": [[0.0, 2.0]]},
                {"t": 0.8, "region": [[1.5, PI]]},
            ]
        },
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
        "plan": {
            "instants": [
                {"t": 0.5, "region": [[0.0, 1.0]]},
                {"t": 0.8, "region": [[2.0, PI]]},
            ]
        },
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
        "plan": {
            "instants": [
                {"t": 0.3, "region": [[0.0, PI]]},
                {"t": 0.6, "region": [[0.0, PI]]},
            ]
        },
        "control": {
            "y0": {"coeffs": [0.0, 0.0, 0.0, 0.0]},
            "y1": {"mode": 1},
            "T": 1.0,
        },
    },
}


def run_cli(command, config, out_dir, *extra):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg_path = out_dir / "config.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    argv = [
        sys.executable,
        "-m",
        "memobs",
        command,
        "--config",
        str(cfg_path),
        "--out",
        str(out_dir),
        *extra,
    ]
    return subprocess.run(argv, capture_output=True, text=True)


def run_main(capsys, command, config, out_dir, *extra):
    """``run_cli`` through ``memobs.cli.main`` in this process: the exit
    code as ``returncode`` and what the run printed to stderr as ``stderr``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg_path = out_dir / "config.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    capsys.readouterr()
    code = main([command, "--config", str(cfg_path), "--out", str(out_dir), *extra])
    return SimpleNamespace(returncode=code, stderr=capsys.readouterr().err)


def artifact_bytes(out_dir):
    """Artifact files and contents, config and run metadata excluded."""
    out = {}
    for p in sorted(Path(out_dir).iterdir()):
        if p.name in ("config.json", "run_meta.json"):
            continue
        out[p.name] = p.read_bytes()
    return out


NODAL_NUMERIC = {
    "kernel": EXP4,
    "nodal": {"lam": 1.0, "T_max": 4.5, "method": "numeric"},
}


@pytest.mark.parametrize(
    "command, config",
    [pytest.param(c, CONFIGS[c], id=c) for c in sorted(CONFIGS)]
    + [pytest.param("nodal", NODAL_NUMERIC, id="nodal-numeric")],
)
def test_repeat_runs_are_byte_identical(command, config, tmp_path, capsys):
    # Two runs in one process, so state a run leaves behind cannot change
    # the next run's artifacts; criterion 10 repeats every command in
    # separate processes and at two --threads values.  Run b writes over
    # longer, different bytes under every name run a wrote, so each file
    # must be rewritten in place and cut to the new length.
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    code = main([command, "--config", str(cfg_path), "--out", str(a_dir)])
    assert code == 0, capsys.readouterr().err
    b_dir.mkdir()
    inodes = {}
    for p in a_dir.iterdir():
        stale = b_dir / p.name
        stale.write_bytes(b"~" * (2 * p.stat().st_size + 100))
        inodes[p.name] = stale.stat().st_ino
    code = main([command, "--config", str(cfg_path), "--out", str(b_dir)])
    assert code == 0, capsys.readouterr().err
    a = artifact_bytes(a_dir)
    assert a and a == artifact_bytes(b_dir)
    assert "run_meta.json" in inodes
    assert json.loads((b_dir / "run_meta.json").read_text())["command"] == command
    assert {p.name: p.stat().st_ino for p in b_dir.iterdir()} == inodes


# Newlines, and characters that take two to four bytes in UTF-8.
WRITER_TEXT = "x,y\n1.5,λ = π²\n\n# ü → 𝔼\nlast line, no newline"


@pytest.mark.parametrize("before", ["absent", "longer", "shorter"])
def test_artifact_writer_matches_write_text(tmp_path, before):
    reference = tmp_path / "reference.txt"
    reference.write_text(WRITER_TEXT, encoding="utf-8")
    want = reference.read_bytes()
    path = tmp_path / "artifact.txt"
    if before == "longer":
        path.write_bytes(b"\xff" * (2 * len(want)))
    elif before == "shorter":
        path.write_bytes(b"\xff" * (len(want) // 2))
    cli._write_artifact(path, WRITER_TEXT)
    assert path.read_bytes() == want


@pytest.mark.skipif(os.name != "posix", reason="POSIX permission bits")
@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=lambda m: f"umask{m:03o}")
def test_artifact_writer_creates_files_as_write_text_does(tmp_path, umask):
    old = os.umask(umask)
    try:
        (tmp_path / "reference.txt").write_text("x\n", encoding="utf-8")
        cli._write_artifact(tmp_path / "artifact.txt", "x\n")
    finally:
        os.umask(old)
    modes = {stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
    assert modes == {0o666 & ~umask}


# One Report that holds every kind of value an artifact can carry; its JSON
# and CSV text below is the cell-text contract that the README states.
GOLDEN_REPORT = cli.Report(
    "golden",
    {
        "floats": [0.1, -0.0, 5e-324, 1e308, 1 / 3],
        "non_finite": [math.nan, math.inf, -math.inf],
        "numpy": [np.float64(0.1), np.float32(0.1), np.int64(-7)],
        "ints": [0, -3, 2**70],
        "int_and_bool": [1, True],
        "flags": [True, False],
        "none": None,
        "text": "λ = π²",
        "empty_list": [],
        "empty_dict": {},
        "records": [{"k": 1, "x": 0.5}, {"k": 2, "x": math.nan}],
        "pair": (1.5, -2),
        "array": np.array([0.25, 1e-300, 3.0]),
    },
    ["a", "b", "c", "d", "e"],
    [
        (0.1, -0.0, 5e-324, 1e308, 1 / 3),
        [math.nan, math.inf, -math.inf, np.float64(2.5), np.float32(0.1)],
        (np.int64(-7), 3, True, np.bool_(False), None),
        ("λ = π²", None, 0, 2**70, ""),
        (0.5, 1),
    ],
)
GOLDEN_SHA = "0" * 64
GOLDEN_JSON = """{
  "config_sha256": "0000000000000000000000000000000000000000000000000000000000000000",
  "floats": [
    0.10000000000000001,
    -0,
    4.9406564584124654e-324,
    1e+308,
    0.33333333333333331
  ],
  "non_finite": [
    "nan",
    "inf",
    "-inf"
  ],
  "numpy": [
    0.10000000000000001,
    0.10000000149011612,
    -7
  ],
  "ints": [
    0,
    -3,
    1180591620717411303424
  ],
  "int_and_bool": [
    1,
    true
  ],
  "flags": [
    true,
    false
  ],
  "none": null,
  "text": "\\u03bb = \\u03c0\\u00b2",
  "empty_list": [],
  "empty_dict": {},
  "records": [
    {
      "k": 1,
      "x": 0.5
    },
    {
      "k": 2,
      "x": "nan"
    }
  ],
  "pair": [
    1.5,
    -2
  ],
  "array": [
    0.25,
    1e-300,
    3
  ]
}
"""
GOLDEN_CSV = """# config_sha256=0000000000000000000000000000000000000000000000000000000000000000
a,b,c,d,e
0.10000000000000001,-0,4.9406564584124654e-324,1e+308,0.33333333333333331
nan,inf,-inf,2.5,0.10000000149011612
-7,3,True,False,
λ = π²,,0,1180591620717411303424,
0.5,1
"""


def test_artifact_text_is_frozen(tmp_path):
    paths = cli.emit_report([GOLDEN_REPORT], tmp_path, config_sha=GOLDEN_SHA)
    assert [p.name for p in paths] == ["golden.json", "golden.csv"]
    assert (tmp_path / "golden.json").read_text(encoding="utf-8") == GOLDEN_JSON
    assert (tmp_path / "golden.csv").read_text(encoding="utf-8") == GOLDEN_CSV


def test_json_renders_numpy_bools():
    assert cli._json_text([np.bool_(True), np.bool_(False)]) == "[\n  true,\n  false\n]"


# A per-cell renderer of the artifact text, one Python call per value, as
# emit_report rendered it before it formatted whole rows and lists at once.


def _ref_float(v):
    if math.isnan(v):
        return '"nan"'
    if math.isinf(v):
        return '"inf"' if v > 0 else '"-inf"'
    return "%.17g" % v


def _ref_json(value, indent=0):
    if isinstance(value, (np.floating, float)):
        return _ref_float(float(value))
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if value is None:
        return "null"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (np.integer, int)):
        return str(int(value))
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = ",\n".join(inner + _ref_json(v, indent + 1) for v in value)
        return "[\n" + items + "\n" + pad + "]"
    if not value:
        return "{}"
    items = ",\n".join(
        f"{inner}{json.dumps(str(k))}: {_ref_json(v, indent + 1)}"
        for k, v in value.items()
    )
    return "{\n" + items + "\n" + pad + "}"


def _ref_cell(v):
    if isinstance(v, (np.floating, float)):
        return _ref_float(float(v)).strip('"')
    if v is None:
        return ""
    if isinstance(v, (np.integer, int)) and not isinstance(v, bool):
        return str(int(v))
    return str(v)


# Text without surrogates (not UTF-8) or control characters (which the
# newline handling of reading back would change).
TEXT = st.text(st.characters(blacklist_categories=("Cs", "Cc")), max_size=6)
FLOATS = st.floats() | st.sampled_from([-0.0, 5e-324, 1e308, -1e308])
CELLS = [
    FLOATS,
    FLOATS.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(0, 255).map(np.uint8),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.none(),
    TEXT,
]
# A few row signatures per table, so rows repeat and differ in cell types.
ROWS = st.lists(
    st.lists(st.sampled_from(range(len(CELLS))), max_size=5), min_size=1, max_size=3
).flatmap(
    lambda signatures: st.lists(
        st.sampled_from(signatures).flatmap(
            lambda s: st.tuples(*(CELLS[i] for i in s))
        ).flatmap(lambda row: st.sampled_from([row, list(row)])),
        max_size=8,
    )
)
# Lists of one kind of number, which emit_report renders at once, beside
# every scalar; then lists, tuples and objects of those.
LEAVES = st.one_of(
    *CELLS,
    st.lists(FLOATS, max_size=6),
    st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=6),
    st.lists(st.integers(), max_size=6),
    st.lists(st.floats(), max_size=6).map(np.array),
    st.lists(st.integers(-99, 99), max_size=6).map(np.array),
)
PAYLOADS = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=12,
).filter(lambda p: p is not None)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(payload=PAYLOADS, rows=ROWS)
def test_artifact_text_matches_per_cell_renderer(payload, rows):
    header = ["c%d" % i for i in range(max(map(len, rows), default=0))]
    want_json = payload
    if isinstance(payload, dict):
        want_json = {"config_sha256": GOLDEN_SHA, **payload}
    want_csv = [f"# config_sha256={GOLDEN_SHA}", ",".join(header)]
    want_csv += [",".join(_ref_cell(c) for c in row) for row in rows]
    with tempfile.TemporaryDirectory() as d:
        cli.emit_report(
            [cli.Report("a", payload, header, rows)], d, config_sha=GOLDEN_SHA
        )
        got_json = (Path(d) / "a.json").read_text(encoding="utf-8")
        got_csv = (Path(d) / "a.csv").read_text(encoding="utf-8")
    assert got_json == _ref_json(want_json) + "\n"
    assert got_csv == "\n".join(want_csv) + "\n"


def test_constants_artifacts_and_sha(tmp_path, capsys):
    res = run_main(capsys, "constants", CONFIGS["constants"], tmp_path)
    assert res.returncode == 0, res.stderr
    doc = json.loads((tmp_path / "constants.json").read_text())
    assert next(iter(doc)) == "config_sha256"
    assert [e["K"] for e in doc["entries"]] == [4, 8]
    lines = (tmp_path / "constants.csv").read_text().splitlines()
    assert lines[0] == f"# config_sha256={doc['config_sha256']}"
    assert len(lines) == 4
    meta = json.loads((tmp_path / "run_meta.json").read_text())
    assert meta["command"] == "constants"
    assert meta["config_sha256"] == doc["config_sha256"]
    assert "constants.json" in meta["artifacts"]
    timings = meta["timings"]
    assert list(timings) == ["total_s", "run_s", "emit_s"]
    assert min(timings.values()) >= 0.0
    assert timings["run_s"] + timings["emit_s"] <= timings["total_s"]


# The frozen layout of every artifact of the CONFIGS runs: for each file,
# the key order of a JSON document (top level, then one item of each list of
# records) or the CSV header.  Records are rendered from their dataclass
# fields, so reordering a field shows here.
LAYOUTS = {
    "modal": {
        "modal.json": [
            "config_sha256", "command", "kernel", "lam", "T", "n_steps", "method",
            "x_final", "sup_abs",
        ],
        "modal.csv": ["t", "x"],
    },
    "nodal": {
        "nodal.json": [
            "config_sha256", "command", "kernel", "lam", "T_max", "method", "count",
            "zeros", "flags",
        ],
        "nodal.csv": ["zero", "flag"],
    },
    "propagate": {
        "propagate.json": [
            "config_sha256", "command", "t", "K", "L", "l2_norm", "h_minus4_norm",
        ],
        "propagate.csv": ["k", "lam", "coeff"],
    },
    "residual": {
        "residual.json": [
            "config_sha256", "command", "t", "kernel_at_t", "slope", "sup_lambda2_x",
        ],
        "residual.csv": ["k", "lam", "x", "residual"],
    },
    "check-plan": {
        "plan_check.json": [
            "config_sha256", "command", "m", "times", "kernel_nonvanishing",
            "active_instants", "verdict", "uncovered_intervals", "uncovered_points",
        ],
    },
    "constants": {
        "constants.json": ["config_sha256", "command", "m", "entries"],
        "constants.json:entries": [
            "K", "c_min", "c_max", "lower_bracket", "upper_bracket", "mu_min",
            "mu_min_upper", "mu_max", "clamped", "warnings",
        ],
        "constants.csv": ["K", "c_min", "c_max", "lower_bracket", "upper_bracket"],
    },
    "probe": {
        "probe.json": ["config_sha256", "command", "x0", "radii", "ratios"],
        "probe.csv": ["radius", "ratio"],
    },
    "certify": {
        "certificate.json": [
            "config_sha256", "command", "K", "times", "tol", "verdict", "certified",
            "failing_modes", "modes",
        ],
        "certificate.json:modes": [
            "k", "lam", "witness_index", "witness_time", "value", "sup", "threshold",
        ],
        "certificate.csv": [
            "k", "lam", "witness_index", "witness_time", "value", "sup", "threshold",
        ],
    },
    "reconstruct": {
        "observations.json": [
            "config_sha256", "plan", "sigma", "seed", "generator", "blocks",
        ],
        "observations.json:blocks": ["t", "xs", "values"],
        "reconstruction.json": [
            "config_sha256", "command", "K", "reg", "sigma", "seed", "condition",
            "residual", "data_norm", "relative_h_minus4_error", "relative_l2_error",
        ],
        "reconstruction.csv": ["k", "lam", "recovered", "true"],
    },
    "control": {
        "control.json": [
            "config_sha256", "command", "T", "K", "energy", "cost", "duality_gap",
            "rank", "unreachable_modes", "reach_residual", "target_reachable",
            "notes", "achieved", "simulated", "closed_loop_error_l2",
        ],
        "control.csv": ["j", "tau", "t", "k", "profile", "applied"],
    },
}


def _layout(out_dir):
    """The LAYOUTS entry that the artifacts in ``out_dir`` have."""
    found = {}
    for p in sorted(Path(out_dir).iterdir()):
        if p.suffix == ".csv":
            found[p.name] = p.read_text().splitlines()[1].split(",")
        elif p.suffix == ".json" and p.name != "run_meta.json":
            doc = json.loads(p.read_text())
            found[p.name] = list(doc)
            for key, v in doc.items():
                if isinstance(v, list) and v and isinstance(v[0], dict):
                    layouts = {tuple(item) for item in v}
                    assert len(layouts) == 1, (p.name, key, layouts)
                    found[f"{p.name}:{key}"] = list(layouts.pop())
    return found


@pytest.mark.parametrize("command", sorted(CONFIGS))
def test_artifact_layout_is_frozen(command, tmp_path, capsys):
    assert sorted(LAYOUTS) == sorted(CONFIGS)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(CONFIGS[command]), encoding="utf-8")
    out = tmp_path / "out"
    code = main([command, "--config", str(cfg_path), "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    assert _layout(out) == LAYOUTS[command]


def test_set_override_changes_config_hash(tmp_path, capsys):
    base = run_main(capsys, "modal", CONFIGS["modal"], tmp_path / "a")
    over = run_main(
        capsys, "modal", CONFIGS["modal"], tmp_path / "b", "--set", "modal.lam=9.0"
    )
    assert base.returncode == 0 and over.returncode == 0
    d1 = json.loads((tmp_path / "a" / "modal.json").read_text())
    d2 = json.loads((tmp_path / "b" / "modal.json").read_text())
    assert d1["config_sha256"] != d2["config_sha256"]
    assert d2["lam"] == 9.0


def test_parser_reuse_keeps_runs_independent(tmp_path, capsys):
    # main builds its parser once per process; a --set of one run must not
    # reach the next, and a parse error after a good run still exits 1.
    cli._build_parser.cache_clear()
    fresh = run_main(capsys, "modal", CONFIGS["modal"], tmp_path / "fresh")
    parser = cli._build_parser()
    over = run_main(
        capsys, "modal", CONFIGS["modal"], tmp_path / "over", "--set", "modal.lam=9.0"
    )
    again = run_main(capsys, "modal", CONFIGS["modal"], tmp_path / "again")
    assert fresh.returncode == over.returncode == again.returncode == 0
    assert cli._build_parser() is parser

    def sha(name):
        doc = json.loads((tmp_path / name / "modal.json").read_text())
        return doc["config_sha256"]

    assert sha("over") != sha("fresh")
    assert sha("again") == sha("fresh")
    assert main(["frobnicate", "--config", "x"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_out_dir_from_environment(tmp_path, monkeypatch, capsys):
    out = tmp_path / "envout"
    out.mkdir()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(CONFIGS["modal"]), encoding="utf-8")
    monkeypatch.setenv("MEMOBS_OUT", str(out))
    code = main(["modal", "--config", str(cfg)])
    assert code == 0, capsys.readouterr().err
    assert (out / "modal.json").exists()


def test_exit_codes(tmp_path):
    # ``python -m memobs`` exits with the status of main: one run per failing
    # status here, and criterion 10 runs every command to status 0.

    # unreadable config
    missing = tmp_path / "missing.json"
    res = subprocess.run(
        [sys.executable, "-m", "memobs", "modal", "--config", str(missing)],
        capture_output=True,
        text=True,
    )
    assert res.returncode == 1 and "error:" in res.stderr

    # numerical failure: unregularized normal equations on a sliver region
    singular = {
        "basis": BASIS8,
        "kernel": EXP1,
        "plan": {"instants": [{"t": 0.5, "region": [[0.0, 0.02]]}]},
        "reconstruct": {"y0": {"mode": 1}, "sigma": 0.0, "seed": 3, "reg": 0.0},
    }
    res = run_cli("reconstruct", singular, tmp_path / "y")
    assert res.returncode == 2 and "numerical failure:" in res.stderr


_LAZY_SCIPY = """
import importlib, json, sys
from pathlib import Path

import memobs
import memobs.cli

steps, root = json.loads(sys.argv[1]), Path(sys.argv[2])
heavy = (
    "scipy.fft", "scipy.interpolate", "scipy.linalg",
    "scipy.optimize", "scipy.sparse", "scipy.spatial",
)


def loaded():
    return sorted({h for m in sys.modules for h in heavy if m == h or m.startswith(h + ".")})


after = []
for i, step in enumerate(steps):
    if isinstance(step, str):
        importlib.import_module(step)
    else:
        command, config = step
        cfg = root / f"{i}.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        code = memobs.cli.main([command, "--config", str(cfg), "--out", str(root / str(i))])
        assert code == 0, command
    after.append(loaded())
print(json.dumps(after))
"""


def scipy_loaded(steps, tmp_path):
    """In a fresh interpreter that has imported memobs.cli, the scipy
    modules loaded after each step: a module name to import, or a
    (command, config) pair run through ``cli.main``."""
    res = subprocess.run(
        [sys.executable, "-c", _LAZY_SCIPY, json.dumps(steps), str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.splitlines()[-1])


def test_closed_form_runs_load_no_scipy_submodule(tmp_path):
    # Importing memobs and running the commands that read only closed-form
    # values (exponential kernels, nodal by the closed method) load none of
    # scipy's numerical modules.  A march of an exponential kernel then
    # loads the LAPACK ones and not the FFT, which the series solution
    # loads, so the imports are deferred, not dropped.
    assert CONFIGS["nodal"]["nodal"]["method"] == "closed"
    assert CONFIGS["modal"]["kernel"]["kind"] == "exponential"
    commands = ("check-plan", "constants", "certify", "nodal", "modal")
    series = {**CONFIGS["modal"], "modal": {"lam": 4.0, "T": 2.0, "method": "series"}}
    steps = [[c, CONFIGS[c]] for c in commands] + [["modal", series]]
    after = scipy_loaded(steps, tmp_path)
    assert after[-3] == []
    assert "scipy.linalg" in after[-2] and "scipy.fft" not in after[-2]
    assert "scipy.fft" in after[-1]


TAB_CONSTANTS = {
    **CONFIGS["constants"],
    "kernel": {
        "kind": "tabulated",
        "times": [0.0, 0.25, 0.5, 0.75, 1.0],
        "values": [1.0, 0.8, 0.7, 0.65, 0.6],
    },
}


@pytest.mark.parametrize(
    "command, config",
    [("constants", TAB_CONSTANTS), ("nodal", NODAL_NUMERIC)],
    ids=["constants-tabulated", "nodal-numeric"],
)
def test_spline_runs_load_no_scipy_interpolate(command, config, tmp_path):
    # A tabulated kernel and a numeric nodal set take their cubic spline
    # pieces from one banded solve: such a run loads scipy.linalg, and
    # scipy.fft for the march of a tabulated kernel but not of an
    # exponential one, and no scipy module beyond what those two load
    # themselves (an older scipy.linalg loads scipy.sparse itself).
    # scipy.interpolate would bring optimize, sparse and spatial with it.
    own = scipy_loaded(["scipy.fft", "scipy.linalg"], tmp_path)[-1]
    (after,) = scipy_loaded([[command, config]], tmp_path)
    marched_by_fft = config["kernel"]["kind"] == "tabulated"
    assert "scipy.interpolate" not in own
    assert "scipy.linalg" in after and ("scipy.fft" in after) == marched_by_fft
    assert set(after) <= set(own)


def test_exit_codes_in_process(tmp_path, capsys):
    # a config that is not UTF-8 is read through the same JSON reader
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"kernel": "\xff"}')
    assert main(["modal", "--config", str(latin)]) == 1
    assert "is not valid JSON" in capsys.readouterr().err

    # schema violation: stray section
    bad = dict(CONFIGS["modal"])
    bad["extra"] = {}
    res = run_main(capsys, "modal", bad, tmp_path / "x")
    assert res.returncode == 1 and "error:" in res.stderr

    # unknown command is rejected by the parser
    assert main(["frobnicate", "--config", "x"]) == 1


def test_reconstruct_round_trips_through_data_file(tmp_path, capsys):
    first = run_main(capsys, "reconstruct", CONFIGS["reconstruct"], tmp_path / "a")
    assert first.returncode == 0, first.stderr
    data_file = tmp_path / "a" / "observations.json"
    assert data_file.exists()

    cfg = {
        "basis": BASIS8,
        "kernel": EXP1,
        "plan": FULL_PLAN,
        "reconstruct": {"data_file": str(data_file), "reg": 1e-8},
    }
    second = run_main(capsys, "reconstruct", cfg, tmp_path / "b")
    assert second.returncode == 0, second.stderr
    d1 = json.loads((tmp_path / "a" / "reconstruction.json").read_text())
    d2 = json.loads((tmp_path / "b" / "reconstruction.json").read_text())
    assert d2["data_sha256"]
    assert d1["residual"] == d2["residual"]

    # recovered coefficients agree row by row
    c1 = (tmp_path / "a" / "reconstruction.csv").read_text().splitlines()
    c2 = (tmp_path / "b" / "reconstruction.csv").read_text().splitlines()
    rows1 = [ln.split(",")[:3] for ln in c1[2:]]
    rows2 = [ln.split(",")[:3] for ln in c2[2:]]
    assert rows1 == rows2

    # a plan mismatch against the stored data is a config error
    tampered = json.loads(json.dumps(cfg))
    tampered["plan"]["instants"][0]["t"] = 0.51
    third = run_main(capsys, "reconstruct", tampered, tmp_path / "c")
    assert third.returncode == 1
    assert "different plan" in third.stderr


def test_reconstruct_below_basis_K_fills_one_table(tmp_path, capsys, monkeypatch):
    # The observations table every mode of the basis, and the reconstruction
    # at K = 5 of 8 reads its first 5 columns from that same table.
    fills = []
    fill = ModalCache._fill

    def counted(self, *args):
        fills.append(args)
        return fill(self, *args)

    monkeypatch.setattr(ModalCache, "_fill", counted)
    over = ("--set", "reconstruct.K=5")
    res = run_main(capsys, "reconstruct", CONFIGS["reconstruct"], tmp_path, *over)
    assert res.returncode == 0, res.stderr
    assert len(fills) == 1


def test_certify_reports_failing_mode(tmp_path, capsys):
    cfg = {
        "basis": BASIS8,
        "kernel": EXP4,
        "certify": {"times": [0.68067221251729416]},
    }
    res = run_main(capsys, "certify", cfg, tmp_path)
    assert res.returncode == 0, res.stderr
    doc = json.loads((tmp_path / "certificate.json").read_text())
    assert doc["certified"] is False
    assert doc["failing_modes"] == [1]


def test_check_plan_verdict(tmp_path, capsys):
    res = run_main(capsys, "check-plan", CONFIGS["check-plan"], tmp_path)
    assert res.returncode == 0, res.stderr
    doc = json.loads((tmp_path / "plan_check.json").read_text())
    assert doc["verdict"] == "Strong"
    assert doc["kernel_nonvanishing"] is True


def _observations_doc():
    y0 = SpectralField(SpectralBasis(PI, 8), [1.0] + [0.0] * 7)
    plan = SamplingPlan.from_json(FULL_PLAN, L=PI)
    return simulate_observations(y0, plan, kernel_from_spec(EXP1), 16).to_json()


def _bad(command, overrides, where, tamper=None, name=None):
    """A malformed input: ``--set`` overrides of the command's test config, or
    an in-place change ``tamper`` to a valid reconstruct data file (a value
    that is not callable replaces the whole file), which the reconstruct
    section then names before the overrides; ``where`` is the text that must
    name the offending path."""
    return pytest.param(command, overrides, tamper, where, id=name)


# Malformed values from a config, a --set override or a data file: each must
# exit 1 with an error line naming its path, never a traceback or exit 0.
BAD_INPUTS = [
    _bad("certify", ['certify.times=["a"]'], "certify.times[0]", name="time-string"),
    _bad("certify", ["certify.times=[null]"], "certify.times[0]", name="time-null"),
    _bad(
        "certify", ["certify.times=[true, 0.4]"], "certify.times[0]", name="time-bool"
    ),
    _bad("probe", ['probe.radii=["x"]'], "probe.radii[0]", name="radius-string"),
    _bad("probe", ["probe.radii=[0.2, NaN]"], "probe.radii[1]", name="radius-nan"),
    _bad(
        "check-plan",
        ['plan.instants=[{"t": "abc", "region": [[0, 1]]}]'],
        "plan: instants[0].t",
        name="instant-string",
    ),
    _bad(
        "check-plan",
        ['plan.instants=[{"t": true, "region": [[0, 1]]}]'],
        "plan: instants[0].t",
        name="instant-bool",
    ),
    _bad("check-plan", ["plan.instants=5"], "plan: instants", name="instants-number"),
    _bad(
        "check-plan",
        ['plan.instants=[{"t": 0.5, "region": [[0.0, "x"]]}]'],
        "plan: instants[0]: region[0][1]",
        name="endpoint-string",
    ),
    _bad(
        "check-plan",
        ['plan.instants=[{"t": 0.5, "region": [[0.0, 1.0, "x", 1]]}]'],
        "plan: instants[0]: region[0][2]",
        name="interval-flag-string",
    ),
    _bad(
        "propagate",
        ["basis.K=4", 'propagate.y0={"coeffs": ["1", 0, 0, 0]}'],
        "propagate.y0.coeffs[0]",
        name="coeff-string",
    ),
    _bad(
        "propagate",
        ["basis.K=4", 'propagate.y0={"coeffs": [true, 0, 0, 0]}'],
        "propagate.y0.coeffs[0]",
        name="coeff-bool",
    ),
    _bad(
        "residual",
        ["residual.ks=[0,1,2,3,4,5,6,7,8,16]"],
        "residual.ks[0]",
        name="mode-zero",
    ),
    _bad(
        "residual",
        ["residual.ks=[1,2,3,4,5,6,7,8,100]"],
        "ks must lie in 1..16",
        name="mode-above-K",
    ),
    _bad("modal", ['kernel={"kind": []}'], "kernel: unknown", name="kernel-kind-list"),
    _bad("modal", ["modal.method=[1]"], "modal.method", name="method-list"),
    # richardson applies only to the march and tol only to the series: each
    # is rejected next to another method, whatever its value.
    _bad(
        "modal",
        ['modal.method="closed"', "modal.richardson=false"],
        "modal.richardson does not apply to method 'closed'",
        name="closed-with-richardson",
    ),
    _bad(
        "modal",
        ['modal.method="closed"', "modal.tol=1e-3"],
        "modal.tol does not apply to method 'closed'",
        name="closed-with-tol",
    ),
    _bad(
        "modal",
        ["modal.tol=1e-3"],
        "modal.tol does not apply to method 'march'",
        name="march-with-tol",
    ),
    _bad(
        "modal",
        ['modal.method="series"', "modal.richardson=false"],
        "modal.richardson does not apply to method 'series'",
        name="series-with-richardson",
    ),
    _bad(
        "reconstruct", ["reconstruct.seed=-1"], "reconstruct.seed", name="seed-below-0"
    ),
    _bad(
        "reconstruct",
        [],
        "data_file: seed",
        tamper=lambda d: d.update(seed="abc"),
        name="data-seed-string",
    ),
    _bad(
        "reconstruct",
        [],
        "data_file: sigma",
        tamper=lambda d: d.update(sigma="x"),
        name="data-sigma-string",
    ),
    _bad(
        "reconstruct",
        [],
        "data_file: blocks[0]",
        tamper=lambda d: d["blocks"][0].pop("xs"),
        name="data-block-without-xs",
    ),
    _bad(
        "reconstruct",
        [],
        "data_file: blocks[0]",
        tamper=lambda d: d["blocks"].__setitem__(0, [1, 2]),
        name="data-block-not-object",
    ),
    _bad(
        "reconstruct",
        [],
        "data_file: blocks[0].t",
        tamper=lambda d: d["blocks"][0].update(t=123.0),
        name="data-block-time-off-plan",
    ),
    _bad(
        "reconstruct",
        [],
        "data_file: blocks",
        tamper=lambda d: d.update(blocks=5),
        name="data-blocks-number",
    ),
    _bad(
        "reconstruct",
        [],
        "data_file: generator",
        tamper=lambda d: d.update(generator=5),
        name="data-generator-number",
    ),
    # A data file holds its own noise and sampling: the keys that simulate
    # observations are rejected next to it, whatever their value.
    _bad(
        "reconstruct",
        ["reconstruct.sigma=abc"],
        "reconstruct.sigma",
        tamper=lambda d: None,
        name="data-file-with-sigma",
    ),
    _bad(
        "reconstruct",
        ["reconstruct.seed=-5"],
        "reconstruct.seed",
        tamper=lambda d: None,
        name="data-file-with-seed",
    ),
    _bad(
        "reconstruct",
        ["reconstruct.samples_per_unit=2.5"],
        "reconstruct.samples_per_unit",
        tamper=lambda d: None,
        name="data-file-with-samples-per-unit",
    ),
    _bad(
        "constants",
        ['plan.instants=[{"t": 0.5, "region": []}]'],
        "plan: instants[0]",
        name="constants-empty-region",
    ),
    _bad(
        "probe",
        ['plan.instants=[{"t": 0.5, "region": []}]'],
        "plan: instants[0]",
        name="probe-empty-region",
    ),
    # Objects: one that is not an object, one missing a required key and one
    # with an unknown key, at each kind of object a config or data file holds.
    _bad("probe", ["probe=5"], "probe must be a JSON object", name="section-number"),
    _bad(
        "probe",
        ['probe={"x0": 1.5}'],
        "probe: missing required fields ['radii']",
        name="section-missing",
    ),
    _bad(
        "probe", ["probe.r=1"], "probe: unknown fields ['r']", name="section-unknown"
    ),
    # Removed options: each is an unknown key now.
    _bad(
        "nodal",
        ["nodal.refine_tol=1e-10"],
        "nodal: unknown fields ['refine_tol']",
        name="nodal-refine-tol",
    ),
    _bad(
        "nodal",
        ["nodal.resolution=2048"],
        "nodal: unknown fields ['resolution']",
        name="nodal-resolution",
    ),
    _bad(
        "residual",
        ["residual.hlam_max=0.125"],
        "residual: unknown fields ['hlam_max']",
        name="residual-hlam-max",
    ),
    _bad(
        "control",
        ["control.rank_rtol=1e-10"],
        "control: unknown fields ['rank_rtol']",
        name="control-rank-rtol",
    ),
    _bad(
        "control",
        ["control.verify=false"],
        "control: unknown fields ['verify']",
        name="control-verify",
    ),
    _bad(
        "modal", ["kernel=5"], "kernel: kernel spec must be a JSON object",
        name="kernel-number",
    ),
    _bad(
        "modal",
        ['kernel={"c": 1.0, "alpha": 0.0}'],
        "kernel: kernel spec: missing required fields ['kind']",
        name="kernel-without-kind",
    ),
    _bad(
        "modal",
        ['kernel={"kind": "exponential", "c": 1.0}'],
        "kernel: kernel spec: missing required fields ['alpha']",
        name="kernel-missing",
    ),
    _bad(
        "modal",
        ["kernel.value=1"],
        "kernel: kernel spec: unknown fields ['value']",
        name="kernel-unknown",
    ),
    _bad(
        "check-plan",
        ["plan.instants=[5]"],
        "plan: instants[0] must be a JSON object",
        name="instant-number",
    ),
    _bad(
        "check-plan",
        ['plan.instants=[{"t": 0.5}]'],
        "plan: instants[0]: missing required fields ['region']",
        name="instant-missing",
    ),
    _bad(
        "check-plan",
        ['plan.instants=[{"t": 0.5, "region": [[0, 1]], "w": 1}]'],
        "plan: instants[0]: unknown fields ['w']",
        name="instant-unknown",
    ),
    _bad(
        "check-plan",
        ['plan.instants=[{"t": 0.5, "region": [5]}]'],
        "plan: instants[0]: region[0] is not an interval",
        name="interval-number",
    ),
    _bad(
        "check-plan",
        ['plan.instants=[{"t": 0.5, "region": [{"a": 0.0}]}]'],
        "plan: instants[0]: region[0]: missing required fields ['b']",
        name="interval-missing",
    ),
    _bad(
        "check-plan",
        ['plan.instants=[{"t": 0.5, "region": [{"a": 0, "b": 1, "open": true}]}]'],
        "plan: instants[0]: region[0]: unknown fields ['open']",
        name="interval-unknown",
    ),
    _bad(
        "reconstruct",
        [],
        "data_file: observation data must be a JSON object",
        tamper=[1, 2],
        name="data-not-object",
    ),
    _bad(
        "reconstruct",
        [],
        "data_file: observation data: missing required fields ['sigma']",
        tamper=lambda d: d.pop("sigma"),
        name="data-missing",
    ),
    _bad(
        "reconstruct",
        [],
        "data_file: observation data: unknown fields ['w']",
        tamper=lambda d: d.update(w=1),
        name="data-unknown",
    ),
    _bad(
        "reconstruct",
        [],
        "data_file: blocks[0] must be a JSON object",
        tamper=lambda d: d["blocks"].__setitem__(0, 5),
        name="data-block-number",
    ),
    _bad(
        "reconstruct",
        [],
        "data_file: blocks[0]: missing required fields ['values']",
        tamper=lambda d: d["blocks"][0].pop("values"),
        name="data-block-missing",
    ),
    _bad(
        "reconstruct",
        [],
        "data_file: blocks[0]: unknown fields ['w']",
        tamper=lambda d: d["blocks"][0].update(w=1),
        name="data-block-unknown",
    ),
]


@pytest.mark.parametrize("command, overrides, tamper, where", BAD_INPUTS)
def test_bad_input_exits_1_naming_the_path(
    command, overrides, tamper, where, tmp_path, capsys
):
    if tamper is not None:
        doc = _observations_doc()
        if callable(tamper):
            tamper(doc)
        else:
            doc = tamper
        data_file = tmp_path / "observations.json"
        data_file.write_text(json.dumps(doc), encoding="utf-8")
        config = json.dumps({"data_file": str(data_file)})
        overrides = [f"reconstruct={config}", *overrides]
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(CONFIGS[command]), encoding="utf-8")
    argv = [command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]
    for item in overrides:
        argv += ["--set", item]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 1, err
    assert err.startswith("error:") and where in err, err


def _numbers(node, prefix=""):
    """(dotted path, value) of every number in a config outside lists."""
    for key, v in node.items():
        if isinstance(v, dict):
            yield from _numbers(v, f"{prefix}{key}.")
        elif isinstance(v, (int, float)) and not isinstance(v, bool):
            yield f"{prefix}{key}", v


# (command, path, integer field) for every number --set can reach in CONFIGS.
NUMBER_PATHS = sorted(
    (command, path, type(v) is int)
    for command, cfg in CONFIGS.items()
    for path, v in _numbers(cfg)
)
# Fields that take any sign, and those that take 0; every other is positive.
SIGNED = {"kernel.alpha", "kernel.value", "probe.x0"}
ZERO_OK = {"propagate.t", "reconstruct.sigma", "reconstruct.seed", "reconstruct.reg"}


def _bad_numbers(path, is_int):
    """JSON texts that are not a valid value of the field at ``path``."""
    bad = ["NaN", "Infinity", "true", '"1"', "null"]
    if is_int:
        bad.append("2.5")
    if path not in SIGNED:
        bad += ["-1"] if path in ZERO_OK else ["0", "-1"]
    return bad


@settings(max_examples=400, derandomize=True, deadline=None)
@given(
    case=st.sampled_from(NUMBER_PATHS).flatmap(
        lambda c: st.tuples(st.just(c), st.sampled_from(_bad_numbers(*c[1:])))
    )
)
def test_bad_number_at_any_config_path_exits_1(case):
    (command, path, _), raw = case
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as d, contextlib.redirect_stderr(err):
        cfg_path = Path(d) / "config.json"
        cfg_path.write_text(json.dumps(CONFIGS[command]), encoding="utf-8")
        argv = [command, "--config", str(cfg_path), "--out", d]
        code = main(argv + ["--set", f"{path}={raw}"])
    # kernel errors come from the kernel reader, prefixed "kernel: "
    where = path.replace("kernel.", "kernel: ")
    msg = err.getvalue()
    assert code == 1, msg
    assert msg.startswith("error:") and where in msg, msg
