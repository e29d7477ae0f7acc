"""Span tracing of opintlab's layers, from outside the library.

The tracer wraps a fixed list of public functions.  Installing it replaces
every module-global reference to a listed function object in the loaded
``opintlab`` modules (so the names ``cli.py`` and ``norms.py`` import are
covered too); uninstalling puts the originals back.  Untraced rounds run on
the unwrapped library.

Each call of a wrapped function records one span: name, start, end, parent
span, request id, thread, and a few attributes read off its arguments and
result (solver iterations, shapes for the computed flop and byte counts).
A span opened on a pool thread with nothing open on that thread takes as
its parent the innermost span open on the main thread.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

# (module, function) pairs that are traced; each must exist or install fails.
TRACED = (
    ("linalg", "normal_eig"),
    ("linalg", "matrix_to_json"),
    ("linalg", "matrix_from_json"),
    ("symbols", "grid_to_json"),
    ("symbols", "grid_from_json"),
    ("symbols", "middle_slices"),
    ("opint", "doi_apply"),
    ("opint", "toi_apply"),
    ("opint", "moi_apply"),
    ("opint", "separable_apply"),
    ("opint", "doi_via_toi"),
    ("sdp", "solve_gamma2_sdp"),
    ("norms", "s2s2_to_s2_norm"),
    ("norms", "s1_bilinear_norm_lower"),
    ("norms", "doi_s1_norm"),
    ("norms", "trilinear_factor_norm"),
    ("norms", "recover_factorization"),
    ("norms", "gamma2"),
    ("norms", "norm_estimate_to_json"),
    ("cli", "main"),
)

PACKAGE = "opintlab"
LAYERS = ("linalg", "symbols", "opint", "sdp", "norms", "cli")


def _units() -> dict:
    ms = [
        "sdp.solve.busy_ms", "sdp.solve.busy_ms.real", "sdp.solve.busy_ms.complex",
        "norms.ascent.busy_ms", "norms.slices.wall_ms", "norms.slices.sdp_busy_ms",
        "norms.recover.busy_ms", "opint.doi.busy_ms", "opint.toi.busy_ms",
        *(f"opint.moi_o{k}.busy_ms" for k in (3, 4, 5, 6)), "opint.separable.busy_ms",
        "linalg.normal_eig.busy_ms", "linalg.json.busy_ms", "symbols.json.busy_ms",
        "cli.main.self_ms", *(f"layer.{layer}.self_ms" for layer in LAYERS),
        "layer.untraced_ms", "trace.request_wall_ms", "sdp.ms_per_iter",
    ]
    counts = ["sdp.solve.calls", "sdp.solve.iterations", "sdp.solve.non_optimal",
              "norms.ascent.calls", "norms.ascent.unconverged", "linalg.normal_eig.calls"]
    units = dict.fromkeys(ms, "ms")
    units.update(dict.fromkeys(counts, "count"))
    units.update({
        "norms.slices.overlap": "ratio", "norms.slices.solved_frac": "frac",
        "opint.flops": "flop", "opint.bytes": "B", "opint.gflops_per_s": "GFLOP/s",
        "symbols.json.bytes": "B", "trace.overhead_frac": "frac",
    })
    return units


# Unit of every per-layer metric; values are per traced round.
UNITS = _units()

_COMPLEX_BYTES = 16
_CMUL = 8  # flops of one complex multiply-add


@dataclass
class Span:
    sid: int
    name: str  # "<layer>.<function>"
    start: float
    end: float
    parent: int | None
    request: str | None
    thread: int
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def dur(self) -> float:
        return self.end - self.start


def _rotation_flops(rows: int, cols: int) -> int:
    """U_a* X U_b for an (rows x cols) argument."""
    return _CMUL * (rows * rows * cols + rows * cols * cols)


def _chain_cost(ops, grid_shape, args) -> tuple[int, int]:
    """Flops and bytes of a chain contraction, computed from shapes."""
    flops = sum(_rotation_flops(*np.shape(a)) for a in args)
    size = int(np.prod(grid_shape))
    flops += _CMUL * len(args) * size
    rows, cols = grid_shape[0], grid_shape[-1]
    flops += _rotation_flops(rows, cols)
    nbytes = _COMPLEX_BYTES * (
        size + sum(int(np.size(a)) for a in args) + rows * cols
        + sum(op.dim * op.dim for op in ops)
    )
    return flops, nbytes


def _attrs(name: str, call: dict, result) -> dict:
    """Attributes of one call, read off its bound arguments and result."""
    if name == "sdp.solve_gamma2_sdp":
        data = np.asarray(call["s"])
        return {
            "complex": bool(np.iscomplexobj(data) and np.any(data.imag != 0.0)),
            "iterations": int(result.iterations),
            "optimal": result.status == "Optimal",
        }
    if name in ("norms.s1_bilinear_norm_lower", "norms.doi_s1_norm"):
        return {"converged": bool(result.converged)}
    if name == "norms.trilinear_factor_norm":
        values = call["phi"].values
        nonzero = np.any(values != 0.0, axis=(0, 2))
        return {"slices": int(values.shape[1]), "nonzero": int(np.sum(nonzero))}
    if name == "opint.toi_apply":
        ops = (call["op_a"], call["op_b"], call["op_c"])
        flops, nbytes = _chain_cost(ops, call["phi"].shape, (call["x"], call["y"]))
        return {"flops": flops, "bytes": nbytes}
    if name == "opint.moi_apply":
        grid = call["grid"]
        flops, nbytes = _chain_cost(list(call["ops"]), grid.shape, list(call["args"]))
        return {"flops": flops, "bytes": nbytes, "order": grid.order}
    if name == "opint.doi_apply":
        p, q = call["psi"].shape
        flops = 2 * _rotation_flops(p, q) + 6 * p * q
        nbytes = _COMPLEX_BYTES * (3 * p * q + p * p + q * q)
        return {"flops": flops, "bytes": nbytes}
    if name == "opint.separable_apply":
        dims = [op.dim for op in call["ops"]]
        mats = list(call["args"])
        per_term = sum(_CMUL * d**3 for d in dims) + sum(
            _CMUL * (dims[0] * dims[m] * dims[m + 1] + dims[0] * dims[m + 1] ** 2)
            for m in range(len(mats))
        )
        nbytes = _COMPLEX_BYTES * (
            sum(d * d for d in dims) + sum(int(np.size(a)) for a in mats)
            + dims[0] * dims[-1]
        )
        return {"flops": per_term * len(list(call["terms"])), "bytes": nbytes}
    if name == "symbols.grid_to_json":
        return {"bytes": _COMPLEX_BYTES * int(call["grid"].values.size)}
    if name == "symbols.grid_from_json":
        return {"bytes": _COMPLEX_BYTES * int(result.values.size)}
    return {}


class Tracer:
    """Records spans of the traced functions while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.request: str | None = None
        self._ids = iter(range(1, 1 << 62))
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_ident = threading.main_thread().ident
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        tracer = self
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif stack is not tracer._main_stack and tracer._main_stack:
                parent = tracer._main_stack[-1]
            else:
                parent = None
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                attrs = {}
                if result is not None:
                    call = signature.bind(*args, **kwargs).arguments
                    attrs = _attrs(name, call, result)
                tracer.spans.append(
                    Span(sid, name, start, end, parent, tracer.request,
                         threading.get_ident(), attrs)
                )

        return traced

    def install(self) -> None:
        """Replace every module-global reference to a traced function."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [
            mod for key, mod in sorted(sys.modules.items())
            if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for short, fname in TRACED:
            home = sys.modules.get(f"{PACKAGE}.{short}")
            original = getattr(home, fname, None)
            if not callable(original):
                self.uninstall()
                raise RuntimeError(f"traced function {PACKAGE}.{short}.{fname} not found")
            wrapper = self._wrap(f"{short}.{fname}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, value))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()


# ---------------------------------------------------------------------------
# span arithmetic


def _union(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def layer_metrics(spans: list[Span], request_walls: dict, rounds: int) -> dict:
    """Per-layer metrics from the spans of ``rounds`` traced rounds.

    ``request_walls`` maps (round, request id) to the request's wall time;
    spans carry the same key in ``request``.  Every value is per round.
    """
    children: dict[int, list[Span]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append(sp)

    def self_time(sp: Span) -> float:
        kids = children.get(sp.sid, ())
        return sp.dur - _union((k.start, k.end) for k in kids)

    # Wall attribution: a span's self time counts for its layer; the union of
    # its children's intervals is shared among them in proportion to their
    # durations, so overlapping pool children add up to the wall they cover.
    layer_wall = dict.fromkeys(LAYERS, 0.0)

    def attribute(sp: Span, weight: float) -> None:
        layer_wall[sp.layer] += weight * self_time(sp)
        kids = children.get(sp.sid, ())
        busy = sum(k.dur for k in kids)
        if busy > 0.0:
            share = weight * _union((k.start, k.end) for k in kids) / busy
            for kid in kids:
                attribute(kid, share)

    tops: dict[object, list[Span]] = {}
    for sp in spans:
        if sp.parent is None:
            tops.setdefault(sp.request, []).append(sp)
            attribute(sp, 1.0)
    untraced = sum(
        wall - _union((s.start, s.end) for s in tops.get(key, ()))
        for key, wall in request_walls.items()
    )

    def named(*names):
        return [sp for sp in spans if sp.name in names]

    sdp = named("sdp.solve_gamma2_sdp")
    sdp_busy = sum(s.dur for s in sdp)
    iters = sum(s.attrs.get("iterations", 0) for s in sdp)
    ascent = named("norms.s1_bilinear_norm_lower", "norms.doi_s1_norm")
    slices = named("norms.trilinear_factor_norm")
    slice_ids = {s.sid for s in slices}
    slice_sdp = [s for s in sdp if s.parent in slice_ids]
    n_slices = sum(s.attrs.get("slices", 0) for s in slices)
    slices_wall = sum(s.dur for s in slices)
    leaves = named("opint.doi_apply", "opint.toi_apply", "opint.moi_apply",
                   "opint.separable_apply")
    flops = sum(s.attrs.get("flops", 0) for s in leaves)
    leaf_busy = sum(s.dur for s in leaves)
    moi = named("opint.moi_apply")
    eig = named("linalg.normal_eig")
    grid_json = named("symbols.grid_to_json", "symbols.grid_from_json")
    wall = sum(request_walls.values())

    ms = 1e3 / rounds
    per = 1.0 / rounds
    out = {
        "sdp.solve.calls": len(sdp) * per,
        "sdp.solve.busy_ms": sdp_busy * ms,
        "sdp.solve.busy_ms.real": sum(s.dur for s in sdp if not s.attrs.get("complex")) * ms,
        "sdp.solve.busy_ms.complex": sum(s.dur for s in sdp if s.attrs.get("complex")) * ms,
        "sdp.solve.iterations": iters * per,
        "sdp.ms_per_iter": 1e3 * sdp_busy / iters if iters else 0.0,
        "sdp.solve.non_optimal": sum(1 for s in sdp if not s.attrs.get("optimal", True)) * per,
        "norms.ascent.busy_ms": sum(self_time(s) for s in ascent) * ms,
        "norms.ascent.calls": len(ascent) * per,
        "norms.ascent.unconverged": sum(1 for s in ascent if not s.attrs.get("converged", True)) * per,
        "norms.slices.wall_ms": slices_wall * ms,
        "norms.slices.sdp_busy_ms": sum(s.dur for s in slice_sdp) * ms,
        "norms.slices.overlap": sum(s.dur for s in slice_sdp) / slices_wall if slices_wall else 0.0,
        "norms.slices.solved_frac": len(slice_sdp) / n_slices if n_slices else 0.0,
        "norms.recover.busy_ms": sum(s.dur for s in named("norms.recover_factorization")) * ms,
        "opint.doi.busy_ms": (
            sum(s.dur for s in named("opint.doi_apply"))
            + sum(self_time(s) for s in named("opint.doi_via_toi"))
        ) * ms,
        "opint.toi.busy_ms": sum(s.dur for s in named("opint.toi_apply")) * ms,
    }
    for order in (3, 4, 5, 6):
        out[f"opint.moi_o{order}.busy_ms"] = sum(
            s.dur for s in moi if s.attrs.get("order") == order
        ) * ms
    out.update({
        "opint.separable.busy_ms": sum(s.dur for s in named("opint.separable_apply")) * ms,
        "opint.flops": flops * per,
        "opint.bytes": sum(s.attrs.get("bytes", 0) for s in leaves) * per,
        "opint.gflops_per_s": flops / leaf_busy / 1e9 if leaf_busy else 0.0,
        "linalg.normal_eig.calls": len(eig) * per,
        "linalg.normal_eig.busy_ms": sum(s.dur for s in eig) * ms,
        "linalg.json.busy_ms": sum(
            s.dur for s in named("linalg.matrix_to_json", "linalg.matrix_from_json")
        ) * ms,
        "symbols.json.busy_ms": sum(s.dur for s in grid_json) * ms,
        "symbols.json.bytes": sum(s.attrs.get("bytes", 0) for s in grid_json) * per,
        "cli.main.self_ms": sum(self_time(s) for s in named("cli.main")) * ms,
    })
    for layer in LAYERS:
        out[f"layer.{layer}.self_ms"] = layer_wall[layer] * ms
    out["layer.untraced_ms"] = untraced * ms
    out["trace.request_wall_ms"] = wall * ms
    return out
