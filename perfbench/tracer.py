"""In-memory span tracer that wraps the public functions of each memobs module.

A span is recorded at every call into a wrapped function: its name
(``<layer>.<function>``), start and end (``time.perf_counter``), the span that
was open when it started (its parent) and the operation id the benchmark set.
Spans stay in memory; the benchmark turns them into per-layer metrics and
writes them out when it ends.

Wrapping rebinds every name that refers to a wrapped function in every loaded
``memobs`` module, so a call through ``memobs.evolution.solve_modal_richardson``
is traced as well as one through ``memobs.modal.solve_modal_richardson``.
Methods are wrapped on their class.  ``uninstall`` restores the originals, so
traced and untraced passes can alternate in one process.
"""

from __future__ import annotations

import sys
import threading
import time
from pathlib import Path

# (module, function) pairs; the layer is the module name.
FUNCTIONS = [
    ("modal", "solve_modal_volterra"),
    ("modal", "solve_modal_richardson"),
    ("modal", "series_solution_grid"),
    ("modal", "nodal_set_numeric"),
    ("kernels", "kernel_series_K"),
    ("evolution", "propagate"),
    ("evolution", "decomposition_residual"),
    ("spectral", "overlap_matrix"),
    ("sampling", "check_kernel_nonvanishing"),
    ("sampling", "check_geometric_condition"),
    ("sampling", "observation_gram"),
    ("sampling", "observability_constants"),
    ("sampling", "constants_table"),
    ("sampling", "probe_upper_bound"),
    ("inverse_control", "backward_uniqueness_certificate"),
    ("inverse_control", "simulate_observations"),
    ("inverse_control", "reconstruct_initial"),
    ("inverse_control", "impulse_control"),
    ("inverse_control", "simulate_controlled"),
    ("cli", "emit_report"),
]

# (module, class, method) triples; kernel classes are found at install time.
METHODS = [
    ("evolution", "ModalCache", "value_and_sup"),
    ("evolution", "ModalCache", "values"),
    ("cli", "ExperimentConfig", "load"),
]


def _solve_attrs(args, kwargs):
    n = kwargs["n_steps"] if "n_steps" in kwargs else args[3]
    return {"n": int(n)}


def _values_attrs(args, kwargs):
    threads = kwargs.get("threads", 1)
    return {"threads": int(threads), "count": len(args[2])}


def _constants_result(result):
    ks = [c.K for c in result] if isinstance(result, list) else [result.K]
    return {"eig_dim": max(ks)}


def _emit_result(paths):
    return {"bytes": sum(Path(p).stat().st_size for p in paths)}


ARG_ATTRS = {
    "modal.solve_modal_volterra": _solve_attrs,
    "evolution.values": _values_attrs,
}
RESULT_ATTRS = {
    "sampling.constants_table": _constants_result,
    "sampling.observability_constants": _constants_result,
    "cli.emit_report": _emit_result,
}


class Tracer:
    """Collects spans ``[name, start, end, parent, op, attrs]``.

    Each thread keeps its own stack of open spans.  A span opened on a worker
    thread with an empty stack takes as parent the innermost span open on
    the thread that created the tracer, which is the call that handed the
    work to the pool.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack
        self._patches: list[tuple[object, str, object]] = []
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, attrs: dict | None = None) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = None
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent, self.op, attrs or {}])
        stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack().pop()

    def wrap(self, name: str, fn):
        arg_attrs = ARG_ATTRS.get(name)
        result_attrs = RESULT_ATTRS.get(name)

        def traced(*args, **kwargs):
            idx = self.open(name, arg_attrs(args, kwargs) if arg_attrs else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if result_attrs:
                self.spans[idx][5].update(result_attrs(result))
            return result

        traced.__wrapped__ = fn
        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every listed function and method of the loaded memobs."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "memobs" or n.startswith("memobs.")) and m is not None]
        for mod_name, fn_name in FUNCTIONS:
            orig = getattr(sys.modules[f"memobs.{mod_name}"], fn_name)
            traced = self.wrap(f"{mod_name}.{fn_name}", orig)
            for mod in modules:
                if mod.__dict__.get(fn_name) is orig:
                    self._set(mod, fn_name, traced)
        for mod_name, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"memobs.{mod_name}"], cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(f"{mod_name}.{meth}", raw.__func__))
            else:
                wrapped = self.wrap(f"{mod_name}.{meth}", raw)
            self._set(cls, meth, wrapped)
        kernels = sys.modules["memobs.kernels"]
        for cls in vars(kernels).values():
            if (isinstance(cls, type) and issubclass(cls, kernels.MemoryKernel)
                    and "__call__" in cls.__dict__ and cls is not kernels.MemoryKernel):
                self._set(cls, "__call__", self.wrap("kernels.eval", cls.__dict__["__call__"]))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()


def _union_length(intervals) -> float:
    total = 0.0
    end = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def self_times(spans) -> list[float]:
    """Span duration minus the part of it covered by its child spans."""
    children: dict[int, list] = {}
    for s in spans:
        if s[3] is not None:
            children.setdefault(s[3], []).append(s)
    out = []
    for i, s in enumerate(spans):
        kids = [(max(c[1], s[1]), min(c[2], s[2])) for c in children.get(i, ())]
        covered = _union_length([iv for iv in kids if iv[1] > iv[0]])
        out.append(s[2] - s[1] - covered)
    return out


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer counts and times of one pass, keyed by metric name; spans
    opened outside an operation (by the output checks) are left out."""
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        if s[4] is not None:
            by_name.setdefault(s[0], []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def total(name):
        return sum(spans[i][2] - spans[i][1] for i in idx(name))

    def self_sum(*names):
        return sum(selfs[i] for n in names for i in idx(n))

    def union(name):
        return _union_length([(spans[i][1], spans[i][2]) for i in idx(name)])

    solves = idx("modal.solve_modal_volterra")
    steps = sum(spans[i][5]["n"] for i in solves)
    solve_s = total("modal.solve_modal_volterra")
    lookups = idx("evolution.value_and_sup")
    solved = {spans[i][3] for i in idx("modal.solve_modal_richardson")}
    misses = sum(1 for i in lookups if i in solved)
    values = idx("evolution.values")
    sampling = [n for n in by_name if n.startswith("sampling.")]
    return {
        "modal.solves": len(solves),
        "modal.steps": steps,
        "modal.max_n": max((spans[i][5]["n"] for i in solves), default=0),
        "modal.busy_s": union("modal.solve_modal_volterra"),
        "modal.steps_per_s": steps / solve_s if solve_s > 0 else 0.0,
        "modal.nodal_self_s": self_sum("modal.nodal_set_numeric"),
        "evolution.lookups": len(lookups),
        "evolution.misses": misses,
        "evolution.hit_ratio": 1.0 - misses / len(lookups) if lookups else 0.0,
        "evolution.values_s": union("evolution.values"),
        "evolution.threaded_calls": sum(
            1 for i in values
            if spans[i][5]["threads"] > 1 and spans[i][5]["count"] > 1
        ),
        "sampling.self_s": self_sum(*sampling),
        "sampling.eig_dim_max": max(
            (spans[i][5].get("eig_dim", 0) for n in sampling for i in idx(n)),
            default=0,
        ),
        "spectral.overlap_calls": len(idx("spectral.overlap_matrix")),
        "spectral.overlap_s": total("spectral.overlap_matrix"),
        "kernels.eval_calls": len(idx("kernels.eval")),
        "kernels.eval_s": total("kernels.eval"),
        "kernels.series_s": total("kernels.kernel_series_K"),
        "inverse_control.certify_self_s": self_sum(
            "inverse_control.backward_uniqueness_certificate"
        ),
        "inverse_control.reconstruct_self_s": self_sum("inverse_control.reconstruct_initial"),
        "inverse_control.control_self_s": self_sum("inverse_control.impulse_control"),
        "inverse_control.simulate_controlled_s": total("inverse_control.simulate_controlled"),
        "cli.parse_s": total("cli.load"),
        "cli.emit_s": total("cli.emit_report"),
        "cli.artifact_bytes": sum(spans[i][5]["bytes"] for i in idx("cli.emit_report")),
    }
