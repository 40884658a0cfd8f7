"""The float forms of the one-chain runs against their vector forms, bit for bit.

A one-chain run steps in Python floats: the balancing rules' ``g_float``, the
proposals' ``propose_float`` and ``q_pair_float``, and the float twins of the
target reads (``interp_float`` for ``np.interp``, ``_row_reader`` for
``_matrix_rows_at``).  Each must give the bits its vector form gives the same
entry of an array, or the runs would leave the states of stepping.
"""

import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from mcmccalc import samplers
from mcmccalc.kernels import BalancingFunction, ProposalKernel, interp_float
from mcmccalc.measures import POSITIVE_FLOOR, Grid1D, gaussian_density

RULES = [BalancingFunction.barker(), BalancingFunction.min_one()] + [
    BalancingFunction.polynomial(j) for j in (1, 2, 3, 4)]

# ratios from 0 through the subnormals and 1 to the largest floats and inf
SPECIAL_RATIOS = [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-200, 0.5, 1.0,
                  1.0 + 2.0 ** -52, 2.0, 1e200, 1e308, 1.7976931348623157e308, math.inf]
RATIOS = st.one_of(st.sampled_from(SPECIAL_RATIOS), st.floats(0.0, 1e308),
                   st.floats(0.0, 2.0))


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


@st.composite
def grids(draw):
    lower = draw(st.floats(-10.0, 0.0))
    width = draw(st.floats(0.5, 20.0))
    return Grid1D(lower, lower + width, draw(st.integers(3, 600)))


@st.composite
def window_points(draw, grid):
    """Points of the closed window: nodes, the ends, and points between."""
    nodes = grid.nodes
    return draw(st.one_of(st.sampled_from(nodes.tolist()),
                          st.sampled_from([grid.lower, grid.upper]),
                          st.floats(grid.lower, grid.upper)))


@st.composite
def tables(draw, grid, rows):
    """Node values: positive, floored in places, or massless."""
    kind = draw(st.sampled_from(["positive", "floored", "massless"]))
    if kind == "massless":
        return np.zeros((rows, grid.n_points))
    seed = draw(st.integers(0, 2**32 - 1))
    values = np.random.default_rng(seed).uniform(0.0, 3.0, (rows, grid.n_points))
    if kind == "floored":
        values[values < 1.5] = POSITIVE_FLOOR
    return values


@settings(max_examples=200, deadline=None)
@given(rule=st.sampled_from(RULES), ts=st.lists(RATIOS, min_size=1, max_size=8))
@example(rule=RULES[0], ts=SPECIAL_RATIOS)
def test_g_float_equals_g(rule, ts):
    vector = rule.g(np.array(ts))
    assert _bits([rule.g_float(t) for t in ts]) == _bits(vector), rule.tag


@settings(max_examples=200, deadline=None)
@given(data=st.data(), grid=grids(), widest=st.booleans(),
       draws=st.lists(st.floats(-12.0, 12.0), min_size=1, max_size=8))
def test_random_walk_propose_float_equals_propose(data, grid, widest, draws):
    top = (grid.upper - grid.lower) / 6.0
    sigma = top if widest else data.draw(st.floats(0.05 * top, top))
    proposal = ProposalKernel.random_walk(sigma, grid)
    x = data.draw(window_points(grid))
    # draws that land on each wall exactly, and beyond each wall
    draws = draws + [0.0, (grid.upper - x) / sigma, (grid.lower - x) / sigma]
    y, folded = proposal.propose(np.array([x]), np.array(draws))
    floats = [proposal.propose_float(x, d) for d in draws]
    assert _bits([f[0] for f in floats]) == _bits(y)
    assert [f[1] for f in floats] == folded.tolist()


def test_random_walk_propose_float_folds_at_both_walls():
    # the widest step: from each wall, exactly onto it, and out past each wall
    grid = Grid1D(-8.0, 8.0, 513)
    proposal = ProposalKernel.random_walk(16.0 / 6.0, grid)
    cases = [(8.0, 0.0, False), (-8.0, 0.0, False), (7.5, 1.0, True),
             (-7.5, -1.0, True), (0.0, 6.0, True), (0.0, -6.0, True)]
    for x, d, folds in cases:
        y, folded = proposal.propose(np.array([x]), np.array([d]))
        z, fold = proposal.propose_float(x, d)
        assert _bits(z) == _bits(y) and fold == folded[0] == folds
        assert grid.lower <= z <= grid.upper


@settings(max_examples=200, deadline=None)
@given(data=st.data(), grid=grids())
def test_interp_float_equals_np_interp(data, grid):
    values = data.draw(tables(grid, 1))[0]
    points = data.draw(st.lists(window_points(grid), min_size=1, max_size=8))
    nodes, vals = grid.nodes.tolist(), values.tolist()
    want = np.interp(np.array(points), grid.nodes, values)
    assert _bits([interp_float(nodes, vals, v) for v in points]) == _bits(want)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), grid=grids(), rows=st.integers(1, 4))
def test_row_reader_equals_matrix_rows_at(data, grid, rows):
    table = data.draw(tables(grid, rows))
    xs = np.array([data.draw(st.lists(window_points(grid), min_size=rows, max_size=rows))
                   for _ in range(2)])
    want = samplers._matrix_rows_at(grid, table, xs)
    read = samplers._row_reader(grid, table.item)
    got = [[read(r * grid.n_points, v) for r, v in enumerate(point)] for point in xs]
    assert _bits(got) == _bits(want)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), grid=grids(), mean=st.floats(-3.0, 3.0), std=st.floats(0.1, 5.0))
def test_independence_q_pair_float_equals_q_pair(data, grid, mean, std):
    proposal = ProposalKernel.independence(gaussian_density(grid, mean, std))
    xs = np.array(data.draw(st.lists(window_points(grid), min_size=1, max_size=8)))
    ys = np.array(data.draw(st.lists(window_points(grid), min_size=len(xs),
                                     max_size=len(xs))))
    q_xy, q_yx = proposal.q_pair(xs, ys)
    floats = [proposal.q_pair_float(x, y) for x, y in zip(xs.tolist(), ys.tolist())]
    assert _bits([f[0] for f in floats]) == _bits(q_xy)
    assert _bits([f[1] for f in floats]) == _bits(q_yx)
