"""Symbols sampled on finite spectral grids.

A symbol of order n is a complex-valued function of n spectral variables,
stored as its table of values on the Cartesian product of n eigenvalue
lists.  Axis k of the value array corresponds to eigenvalue list k, and
all alignment is positional: entry [i1, ..., in] is the symbol evaluated
at (axes[0][i1], ..., axes[n-1][in]).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BadPosition, EvaluationFailure, ParseError, ShapeMismatch

_POSITIONS = ("left", "right", "outer")


def _as_axis(axis) -> np.ndarray:
    arr = np.asarray(axis, dtype=np.complex128).reshape(-1)
    if arr.size == 0:
        raise ShapeMismatch("axes must be non-empty")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise ValueError("axis entries must be finite")
    return arr


@dataclass(frozen=True, eq=False)
class SymbolGrid:
    """Value table of a symbol on a product of eigenvalue lists.

    ``values`` is a read-only, C-contiguous complex view, of the given array
    when it can be (which must then not change), and |values| < 2**exponent."""

    axes: tuple
    values: np.ndarray
    exponent: int = field(init=False, repr=False)

    def __post_init__(self):
        axes = tuple(_as_axis(a) for a in self.axes)
        if not axes:
            raise ShapeMismatch("a grid needs at least one axis")
        vals = np.ascontiguousarray(self.values, dtype=np.complex128).view()
        expected = tuple(a.size for a in axes)
        if vals.shape != expected:
            raise ShapeMismatch(
                f"value array of shape {vals.shape} does not match axes {expected}"
            )
        # NaN and +-inf show in the extremes of the parts, and twice the
        # larger extreme (one more bit) bounds every modulus.
        parts = vals.reshape(-1).view(np.float64)
        lo, hi = float(np.min(parts)), float(np.max(parts))
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValueError("grid values must be finite")
        vals.flags.writeable = False
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "exponent", int(np.frexp(max(-lo, hi))[1]) + 1)

    @property
    def order(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple:
        return self.values.shape


def grid_from_function(func, axes) -> SymbolGrid:
    """Tabulate a scalar callable on the product of the given axes.

    The callable receives one complex number per axis.  Diagonal conventions
    (for instance divided differences at coinciding points) are the caller's
    responsibility: whatever ``func`` returns on the diagonal is stored.
    """
    axes = tuple(_as_axis(a) for a in axes)
    mesh = np.meshgrid(*axes, indexing="ij")
    values = np.vectorize(func, otypes=[np.complex128])(*mesh)
    if not np.all(np.isfinite(values.real)) or not np.all(np.isfinite(values.imag)):
        raise EvaluationFailure("symbol evaluation produced a non-finite value")
    return SymbolGrid(axes=axes, values=values)


def sup_norm(grid: SymbolGrid) -> float:
    """Largest absolute value on the grid."""
    return float(np.max(np.abs(grid.values)))


def elementary_tensor(vectors, axes) -> SymbolGrid:
    """Grid of f1 (x) ... (x) fn given the value vector of each factor.

    ``vectors[m]`` holds the values of factor m on ``axes[m]``, so the grid
    entry at [i1, ..., in] is the product vectors[0][i1] * ... * vectors[n-1][in].
    """
    axes = tuple(_as_axis(a) for a in axes)
    vecs = [np.asarray(v, dtype=np.complex128).reshape(-1) for v in vectors]
    if len(vecs) != len(axes):
        raise ShapeMismatch("need exactly one value vector per axis")
    for vec, axis in zip(vecs, axes):
        if vec.size != axis.size:
            raise ShapeMismatch("factor values must match their axis length")
    n = len(vecs)
    values = vecs[0].reshape((-1,) + (1,) * (n - 1))
    for m in range(1, n):
        shape = (1,) * m + (-1,) + (1,) * (n - 1 - m)
        values = values * vecs[m].reshape(shape)
    return SymbolGrid(axes=axes, values=values)


def embed_two_to_three(grid: SymbolGrid, position: str, third_axis) -> SymbolGrid:
    """Lift a two-variable symbol to three variables by ignoring one slot.

    position "left":  u(t1, t2) -> (t1, t2, t3) |-> u(t1, t2)
    position "right": v(t1, t2) -> (t1, t2, t3) |-> v(t2, t3)
    position "outer": w(t1, t2) -> (t1, t2, t3) |-> w(t1, t3)

    The ignored slot runs over ``third_axis``.
    """
    if grid.order != 2:
        raise ShapeMismatch(f"embedding needs an order-2 grid, got order {grid.order}")
    third = _as_axis(third_axis)
    a0, a1 = grid.axes
    vals = grid.values
    if position == "left":
        axes = (a0, a1, third)
        out = np.broadcast_to(vals[:, :, None], (a0.size, a1.size, third.size))
    elif position == "right":
        axes = (third, a0, a1)
        out = np.broadcast_to(vals[None, :, :], (third.size, a0.size, a1.size))
    elif position == "outer":
        axes = (a0, third, a1)
        out = np.broadcast_to(vals[:, None, :], (a0.size, third.size, a1.size))
    else:
        raise BadPosition(f"unknown embedding position {position!r}; use {_POSITIONS}")
    return SymbolGrid(axes=axes, values=out.copy())


def pointwise_product(left: SymbolGrid, right: SymbolGrid) -> SymbolGrid:
    """Entrywise product of two grids over identical axes."""
    if left.order != right.order:
        raise ShapeMismatch("grids must have the same order")
    for la, ra in zip(left.axes, right.axes):
        if la.size != ra.size or not np.array_equal(la, ra):
            raise ShapeMismatch("grids must share identical axes")
    return SymbolGrid(axes=left.axes, values=left.values * right.values)


def middle_slices(grid: SymbolGrid) -> list:
    """Slices of an order-3 grid along its middle axis.

    Slice k is the matrix M_k with M_k[i, j] = values[i, k, j].
    """
    if grid.order != 3:
        raise ShapeMismatch(f"middle slices need an order-3 grid, got {grid.order}")
    return [grid.values[:, k, :].copy() for k in range(grid.shape[1])]


def grid_to_json(grid: SymbolGrid) -> dict:
    """Wire format with flat row-major value lists and explicit axes."""
    return {
        "order": grid.order,
        "axes_re": [a.real.tolist() for a in grid.axes],
        "axes_im": [a.imag.tolist() for a in grid.axes],
        "shape": [int(s) for s in grid.shape],
        "values_re": grid.values.real.ravel(order="C").tolist(),
        "values_im": grid.values.imag.ravel(order="C").tolist(),
    }


def grid_from_json(obj) -> SymbolGrid:
    """Parse the grid wire format produced by :func:`grid_to_json`."""
    if not isinstance(obj, dict):
        raise ParseError("grid JSON must be an object")
    for key in ("order", "axes_re", "axes_im", "shape", "values_re", "values_im"):
        if key not in obj:
            raise ParseError(f"grid JSON is missing required key {key!r}")
    order = obj["order"]
    if not isinstance(order, int) or order < 1:
        raise ParseError("grid JSON needs a positive integer 'order'")
    try:
        shape = tuple(int(s) for s in obj["shape"])
        axes_re = [np.array(a, dtype=np.float64) for a in obj["axes_re"]]
        axes_im = [np.array(a, dtype=np.float64) for a in obj["axes_im"]]
        vals_re = np.array(obj["values_re"], dtype=np.float64)
        vals_im = np.array(obj["values_im"], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ParseError("grid JSON fields must be numeric lists") from exc
    if len(shape) != order or len(axes_re) != order or len(axes_im) != order:
        raise ParseError("grid JSON 'shape' and axes must match 'order'")
    axes = []
    for k, (re, im) in enumerate(zip(axes_re, axes_im)):
        if re.ndim != 1 or re.shape != im.shape or re.size != shape[k]:
            raise ParseError(f"grid JSON axis {k} does not match 'shape'")
        axes.append(re + 1j * im)
    total = int(np.prod(shape))
    if vals_re.ndim != 1 or vals_re.size != total or vals_im.shape != vals_re.shape:
        raise ParseError("grid JSON value lists must be flat and match 'shape'")
    values = np.stack((vals_re, vals_im), axis=-1).view(np.complex128).reshape(shape)
    try:
        return SymbolGrid(axes=tuple(axes), values=values)
    except (ShapeMismatch, ValueError) as exc:
        raise ParseError(f"grid JSON is inconsistent: {exc}") from exc
