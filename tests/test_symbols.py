"""Symbol grids: construction, algebra, slicing, and JSON wire format."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opintlab import (
    BadPosition,
    EvaluationFailure,
    ParseError,
    ShapeMismatch,
    SymbolGrid,
    elementary_tensor,
    embed_two_to_three,
    grid_from_function,
    grid_from_json,
    grid_to_json,
    middle_slices,
    pointwise_product,
    sup_norm,
)

finite_floats = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
axis_strategy = st.lists(finite_floats, min_size=1, max_size=4)


def _grid_from_axes(axes_lists, fill):
    axes = [np.asarray(a, dtype=complex) for a in axes_lists]
    shape = tuple(len(a) for a in axes)
    values = np.full(shape, fill, dtype=complex)
    return SymbolGrid(axes=tuple(axes), values=values)


# ---------------------------------------------------------------------------
# construction and evaluation


def test_grid_from_function_divided_difference_golden():
    nodes = np.array([0.0, 1.0])

    def dd_exp(a, b):
        if a == b:
            return np.exp(a)
        return (np.exp(a) - np.exp(b)) / (a - b)

    grid = grid_from_function(dd_exp, [nodes, nodes])
    e = math.e
    np.testing.assert_allclose(
        grid.values, [[1.0, e - 1.0], [e - 1.0, e]], rtol=1e-14
    )


def test_grid_from_function_rejects_non_finite():
    with pytest.raises(EvaluationFailure):
        grid_from_function(
            lambda a, b: float("inf") if a == b else 1.0, [[0.0, 1.0], [0.0, 1.0]]
        )


def test_grid_from_function_order_three():
    axes = [np.arange(2.0), np.arange(3.0), np.arange(2.0)]
    grid = grid_from_function(lambda a, b, c: a + 10 * b + 100 * c, axes)
    assert grid.order == 3
    assert grid.values[1, 2, 0] == 21.0
    assert grid.values[0, 1, 1] == 110.0


def test_sup_norm():
    grid = _grid_from_axes([[0.0, 1.0], [0.0, 1.0]], 0.5)
    values = grid.values.copy()
    values[1, 0] = -3.0 + 4.0j
    grid = SymbolGrid(axes=grid.axes, values=values)
    assert sup_norm(grid) == pytest.approx(5.0)


def test_elementary_tensor_matches_outer_product():
    rng = np.random.default_rng(7)
    vecs = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(3)]
    axes = [np.arange(2.0)] * 3
    grid = elementary_tensor(vecs, axes)
    want = np.einsum("a,b,c->abc", *vecs)
    np.testing.assert_allclose(grid.values, want, rtol=1e-14)


# ---------------------------------------------------------------------------
# embedding a two-variable symbol into three variables


@pytest.mark.parametrize(
    "position,expected",
    [
        ("left", lambda v, t: np.tile(v[:, :, None], (1, 1, len(t)))),
        ("right", lambda v, t: np.tile(v[None, :, :], (len(t), 1, 1))),
        ("outer", lambda v, t: np.tile(v[:, None, :], (1, len(t), 1))),
    ],
)
def test_embed_two_to_three(position, expected):
    rng = np.random.default_rng(11)
    axes = [np.array([0.0, 1.0, 2.0]), np.array([5.0, 6.0])]
    vals = rng.standard_normal((3, 2))
    grid = SymbolGrid(
        axes=tuple(np.asarray(a, dtype=complex) for a in axes),
        values=vals.astype(complex),
    )
    third = np.array([-1.0, -2.0, -3.0, -4.0])
    out = embed_two_to_three(grid, position, third)
    assert out.order == 3
    np.testing.assert_allclose(np.asarray(out.values), expected(vals, third))
    if position == "left":
        assert np.array_equal(out.axes[2], third.astype(complex))
    elif position == "right":
        assert np.array_equal(out.axes[0], third.astype(complex))
    else:
        assert np.array_equal(out.axes[1], third.astype(complex))


def test_embed_rejects_unknown_position():
    grid = _grid_from_axes([[0.0], [0.0]], 1.0)
    with pytest.raises(BadPosition):
        embed_two_to_three(grid, "middle", np.array([0.0]))


def test_embed_rejects_order_three_input():
    grid = _grid_from_axes([[0.0], [0.0], [0.0]], 1.0)
    with pytest.raises(ShapeMismatch):
        embed_two_to_three(grid, "left", np.array([0.0]))


# ---------------------------------------------------------------------------
# pointwise algebra and slicing


def test_pointwise_product():
    axes = [[0.0, 1.0], [2.0, 3.0]]
    a = _grid_from_axes(axes, 2.0)
    b = _grid_from_axes(axes, -1.5)
    out = pointwise_product(a, b)
    np.testing.assert_allclose(np.asarray(out.values), -3.0 * np.ones((2, 2)))


def test_pointwise_product_rejects_different_axes():
    a = _grid_from_axes([[0.0, 1.0]], 1.0)
    b = _grid_from_axes([[0.0, 2.0]], 1.0)
    with pytest.raises(ShapeMismatch):
        pointwise_product(a, b)


def test_middle_slices_round_trip():
    rng = np.random.default_rng(3)
    axes = [np.arange(2.0), np.arange(4.0), np.arange(3.0)]
    grid = grid_from_function(lambda a, b, c: 0.0, axes)
    grid = SymbolGrid(
        axes=grid.axes,
        values=(rng.standard_normal((2, 4, 3)) + 1j * rng.standard_normal((2, 4, 3))),
    )
    slices = middle_slices(grid)
    assert len(slices) == 4
    for k, mat in enumerate(slices):
        np.testing.assert_array_equal(mat, np.asarray(grid.values)[:, k, :])


def test_middle_slices_requires_order_three():
    with pytest.raises(ShapeMismatch):
        middle_slices(_grid_from_axes([[0.0], [0.0]], 1.0))


# ---------------------------------------------------------------------------
# JSON wire format


@given(axes_lists=st.lists(axis_strategy, min_size=2, max_size=3), data=st.data())
@settings(max_examples=40, deadline=None)
def test_grid_json_round_trip(axes_lists, data):
    shape = tuple(len(a) for a in axes_lists)
    n = int(np.prod(shape))
    flat = data.draw(
        st.lists(finite_floats, min_size=2 * n, max_size=2 * n), label="entries"
    )
    values = (
        np.asarray(flat[:n], dtype=float) + 1j * np.asarray(flat[n:], dtype=float)
    ).reshape(shape)
    grid = SymbolGrid(
        axes=tuple(np.asarray(a, dtype=complex) for a in axes_lists), values=values
    )
    again = grid_from_json(grid_to_json(grid))
    assert again.order == grid.order
    for mine, theirs in zip(grid.axes, again.axes):
        np.testing.assert_array_equal(mine, theirs)
    np.testing.assert_array_equal(np.asarray(again.values), values)


def test_grid_json_layout_is_row_major():
    axes = [np.array([0.0, 1.0]), np.array([0.0, 1.0, 2.0])]
    values = np.arange(6.0).reshape(2, 3)
    grid = SymbolGrid(
        axes=tuple(a.astype(complex) for a in axes), values=values.astype(complex)
    )
    doc = grid_to_json(grid)
    assert doc["shape"] == [2, 3]
    assert list(doc["values_re"]) == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]


# Every field of a one-point order-1 grid but its order and shape.
_ONE_POINT = dict(axes_re=[[0.0]], axes_im=[[0.0]], values_re=[1.0], values_im=[0.0])


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("values_im"),
        lambda d: d.update(shape=[7, 3]),
        lambda d: d.update(order=3),
        lambda d: d.update(values_re=d["values_re"][:-1]),
        lambda d: d.update(values_re=[float("inf")] * len(d["values_re"])),
        lambda d: d.update(values_re=[str(v) for v in d["values_re"]]),
        lambda d: d["values_im"].__setitem__(2, "0.0"),
        lambda d: d["axes_re"].__setitem__(1, ["0", "1", "2"]),
        lambda d: d.update(shape=["2", "3"]),
        lambda d: d.update(_ONE_POINT, order=True, shape=[1]),  # boolean sizes
        lambda d: d.update(_ONE_POINT, order=1, shape=[True]),
    ],
)
def test_grid_json_rejects_malformed(mutate):
    grid = _grid_from_axes([[0.0, 1.0], [0.0, 1.0, 2.0]], 1.0)
    doc = grid_to_json(grid)
    mutate(doc)
    with pytest.raises(ParseError):
        grid_from_json(doc)


@given(st.lists(finite_floats, min_size=1, max_size=5))
@settings(max_examples=30, deadline=None)
def test_sup_norm_is_max_abs(entries):
    axis = np.arange(float(len(entries)))
    grid = SymbolGrid(
        axes=(axis.astype(complex),), values=np.asarray(entries, dtype=complex)
    )
    assert sup_norm(grid) == pytest.approx(max(abs(e) for e in entries), abs=1e-12)


@pytest.mark.parametrize("part", ["re", "im"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_grid_rejects_non_finite_values(part, bad):
    values = np.ones((2, 3), dtype=complex)
    if part == "re":
        values[1, 2] = complex(bad, 1.0)
    else:
        values[1, 2] = complex(1.0, bad)
    axes = (np.arange(2.0), np.arange(3.0))
    with pytest.raises(ValueError, match="finite"):
        SymbolGrid(axes=axes, values=values)
    doc = grid_to_json(_grid_from_axes(axes, 1.0))
    doc[f"values_{part}"][5] = bad
    with pytest.raises(ParseError):
        grid_from_json(doc)


@pytest.mark.parametrize(
    "fill", [0.0, 5e-324, -3e-310 + 4e-310j, 1e300 * (1 + 1j), -1e300, 1e-300j, 7e-301 - 1e-300j]
)
def test_grid_exponent_bounds_every_modulus(fill):
    values = np.full((2, 3), fill, dtype=complex)
    values[0, 0] = fill / 2
    grid = SymbolGrid(axes=(np.arange(2.0), np.arange(3.0)), values=values)
    moduli = np.abs(grid.values)
    assert np.all(moduli < np.ldexp(1.0, grid.exponent))
    if fill:
        assert grid.exponent <= np.frexp(moduli.max())[1] + 1


def test_grid_values_are_read_only():
    values = np.ones((2, 2), dtype=complex)
    grid = SymbolGrid(axes=(np.arange(2.0), np.arange(2.0)), values=values)
    with pytest.raises(ValueError):
        grid.values[0, 0] = 2.0
    assert grid.values.flags.c_contiguous
    # The caller's array is shared, not copied, and stays writable.
    assert np.shares_memory(grid.values, values) and values.flags.writeable
    transposed = SymbolGrid(axes=grid.axes, values=np.arange(4.0).reshape(2, 2).T)
    assert transposed.values.flags.c_contiguous
    np.testing.assert_array_equal(transposed.values, [[0.0, 2.0], [1.0, 3.0]])
