from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_linalg
from strata import linalg
from strata.gaussian import ZERO, ONE, I, GaussianRational

small = st.integers(min_value=-4, max_value=4)


def g_matrix(rows, cols):
    return st.lists(
        st.lists(st.builds(GaussianRational, small, small), min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    )


def test_rref_known():
    rows = [
        [ONE, ONE, ZERO],
        [ZERO, ONE, ZERO],
    ]
    reduced, pivots = linalg.rref(rows)
    assert pivots == [0, 1]
    assert reduced == [[ONE, ZERO, ZERO], [ZERO, ONE, ZERO]]


@given(g_matrix(3, 4))
@settings(max_examples=60)
def test_rref_canonical_under_row_shuffle(rows):
    reduced, pivots = linalg.rref(rows)
    again, pivots2 = linalg.rref(list(reversed(rows)))
    assert reduced == again and pivots == pivots2


@given(g_matrix(3, 4))
@settings(max_examples=60)
def test_nullspace_annihilates(rows):
    for v in linalg.nullspace(rows, 4):
        for row in rows:
            assert sum((a * b for a, b in zip(row, v)), start=ZERO) == ZERO
    reduced, _ = linalg.rref(rows)
    assert len(reduced) + len(linalg.nullspace(rows, 4)) == 4


@given(g_matrix(3, 3), st.lists(st.builds(GaussianRational, small, small), min_size=3, max_size=3))
@settings(max_examples=60)
def test_solve_linear_consistency(rows, x):
    rhs = linalg.matvec(rows, x)
    solution = linalg.solve_linear(rows, rhs)
    assert solution is not None
    assert linalg.matvec(rows, solution) == rhs


def test_solve_linear_infeasible():
    rows = [[ONE, ZERO], [ONE, ZERO]]
    assert linalg.solve_linear(rows, [ZERO, ONE]) is None


def test_invert_roundtrip():
    rows = [
        [GaussianRational(2), GaussianRational(1)],
        [GaussianRational(1), GaussianRational(1)],
    ]
    inv = linalg.invert(rows)
    assert inv is not None
    prod = [linalg.matvec(rows, [inv[r][c] for r in range(2)]) for c in range(2)]
    assert prod[0] == [ONE, ZERO] and prod[1] == [ZERO, ONE]
    assert linalg.invert([[ONE, ONE], [ONE, ONE]]) is None


def test_bareiss_det():
    assert linalg.bareiss_det([[2, 3], [1, 4]]) == 5
    assert linalg.bareiss_det([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 0
    assert linalg.bareiss_det([[0, 1], [1, 0]]) == -1


def test_lattice_saturation():
    assert linalg.lattice_is_saturated([[2, -3]])
    assert linalg.lattice_is_saturated([[1, 1, -2]])
    assert not linalg.lattice_is_saturated([[2, 0]])
    assert not linalg.lattice_is_saturated([[2, 0], [0, 3]])
    assert linalg.lattice_is_saturated([[1, 0], [0, 1]])
    assert not linalg.lattice_is_saturated([[2, 2], [0, 4]])
    assert linalg.lattice_is_saturated([])


def test_clear_denominators():
    assert linalg.clear_denominators([Fraction(1), Fraction(-2, 3)]) == [3, -2]
    assert linalg.clear_denominators([Fraction(2), Fraction(4)]) == [1, 2]
    assert linalg.clear_denominators([Fraction(1, 2), Fraction(1, 3)]) == [3, 2]


# -- fraction-free rref against the Fraction-based oracle ----------------------

rationals = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 1, 1, 2, 3, 6]))
# Units are drawn often so that running pivots of -1, i and -i come up.
qi = st.one_of(
    st.builds(GaussianRational, rationals, rationals), st.sampled_from([ONE, -ONE, I, -I])
)


def qi_rows(nrows, ncols):
    return st.lists(st.lists(qi, min_size=ncols, max_size=ncols), min_size=nrows, max_size=nrows)


@st.composite
def qi_matrices(draw):
    """Random Q(i) matrices: free or low-rank, wide or tall, with repeats and zero rows."""
    nrows = draw(st.integers(0, 7))
    ncols = draw(st.integers(1, 8))
    if draw(st.booleans()):
        rows = draw(qi_rows(nrows, ncols))
    else:
        k = draw(st.integers(0, max(0, min(nrows, ncols) - 1)))
        left = draw(qi_rows(nrows, k))
        right = draw(qi_rows(k, ncols))
        rows = [
            [sum((a * right[t][j] for t, a in enumerate(row)), start=ZERO) for j in range(ncols)]
            for row in left
        ]
    if rows:
        for _ in range(draw(st.integers(0, 2))):
            rows.insert(draw(st.integers(0, len(rows))), list(rows[draw(st.integers(0, len(rows) - 1))]))
        for _ in range(draw(st.integers(0, 1))):
            rows.insert(draw(st.integers(0, len(rows))), [ZERO] * ncols)
    return rows


@given(qi_matrices())
@settings(max_examples=300, deadline=None)
def test_rref_matches_oracle(rows):
    assert linalg.rref(rows) == oracle_linalg.rref(rows)


@pytest.mark.parametrize(
    "rows",
    [
        [],
        [[], []],
        [[ZERO], [ZERO]],
        [[GaussianRational(Fraction(3, 4), Fraction(-1, 6))], [GaussianRational(2)]],
        [[ONE, ZERO, ONE], [ONE, ZERO, ONE], [ZERO, ZERO, ZERO]],
        [
            [GaussianRational(Fraction(1, 2)), GaussianRational(0, Fraction(1, 3))],
            [ONE, GaussianRational(0, Fraction(2, 3))],
        ],
    ],
    ids=[
        "empty", "no-columns", "single-zero-column", "single-column", "duplicate-and-zero",
        "rank-one-rational",
    ],
)
def test_rref_edge_shapes(rows):
    assert linalg.rref(rows) == oracle_linalg.rref(rows)


@pytest.mark.parametrize("unit", [-ONE, I, -I], ids=["-1", "i", "-i"])
def test_rref_unit_running_pivot(unit):
    """The running pivot d may be a unit other than 1; the division by it must still happen."""
    g = GaussianRational
    # The first pivot is the unit itself.
    first = [[unit, ONE, g(2), ZERO], [ONE, unit, g(3), ONE], [g(2), ONE, unit, ONE]]
    # The first pivot is 1 and the second one, 1 + unit - 1, is the unit.
    second = [[ONE, ONE, g(2), ONE], [ONE, ONE + unit, ZERO, g(2)], [ZERO, ONE, ONE, g(3)]]
    for rows in (first, second):
        reduced, pivots = linalg.rref(rows)
        assert (reduced, pivots) == oracle_linalg.rref(rows)
        assert pivots == [0, 1, 2]
