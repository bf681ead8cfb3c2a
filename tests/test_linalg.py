import random
import sys
import time
import types
from collections import Counter
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_aim
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
    inv = oracle_linalg.invert(rows)
    assert inv is not None
    prod = [linalg.matvec(rows, [inv[r][c] for r in range(2)]) for c in range(2)]
    assert prod[0] == [ONE, ZERO] and prod[1] == [ZERO, ONE]
    assert oracle_linalg.invert([[ONE, ONE], [ONE, ONE]]) is None


def test_bareiss_det():
    assert linalg.bareiss_det([[2, 3], [1, 4]]) == 5
    assert linalg.bareiss_det([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 0
    assert linalg.bareiss_det([[0, 1], [1, 0]]) == -1


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(0, 9),
    fill=st.sampled_from([0.0, 0.05, 0.15, 0.3, 1.0]),
    seed=st.integers(0, 10**6),
)
def test_integer_matrix_helpers_agree_with_their_oracles(n, fill, seed):
    r = random.Random(seed)
    rows = [[r.choice([-3, -1, 1, 2, 10**30]) if r.random() < fill else 0 for _ in range(n)] for _ in range(n)]
    if n > 1 and r.random() < 0.3:
        rows[-1] = [2 * x for x in rows[0]]  # dependent rows at any fill
    assert linalg.int_singular(rows) == (linalg.bareiss_det(rows) == 0)


# -- leading-column certificates, against the elimination they skip -----------------

huge = st.sampled_from([10**30, -(10**30) + 1])
z_entry = st.one_of(st.integers(-3, 3), huge)


@st.composite
def lead_shaped(draw, square=False, gaussian=True):
    """Rows with chosen leading columns, in a random row order: distinct or repeated
    leads, monomial and permuted-identity shapes, zero rows, and huge entries."""
    ncols = draw(st.integers(1, 8))
    nrows = ncols if square else draw(st.integers(0, 9))
    shape = draw(st.sampled_from(["distinct", "repeated", "monomial", "permuted-identity"]))
    order = draw(st.permutations(range(ncols)))

    def entry(nonzero=False):
        x = draw(st.tuples(z_entry, z_entry if gaussian else st.just(0)).filter(lambda x: any(x) or not nonzero))
        return GaussianRational(*x) if gaussian else x[0]

    zero = ZERO if gaussian else 0
    rows = []
    for k in range(nrows):
        lead = draw(st.integers(0, ncols - 1)) if shape == "repeated" or k >= ncols else order[k]
        row = [zero] * ncols
        if draw(st.integers(0, 6)):
            row[lead] = (ONE if gaussian else 1) if shape == "permuted-identity" else entry(nonzero=True)
            if shape in ("distinct", "repeated"):
                row[lead + 1 :] = [entry() for _ in range(ncols - lead - 1)]
        rows.append(row)
    return rows


def _leads_are_distinct(rows, nonzero) -> bool:
    leads = [next(j for j, x in enumerate(row) if nonzero(x)) for row in rows if any(map(nonzero, row))]
    return len(set(leads)) == len(leads)


@given(st.one_of(lead_shaped(), lead_shaped(gaussian=False).map(lambda m: [[GaussianRational(x) for x in row] for row in m])))
@settings(max_examples=400, deadline=None)
def test_rank_certificate_matches_elimination(rows):
    expected = oracle_linalg.rank(rows)
    with pytest.MonkeyPatch.context() as patch:
        calls = []
        patch.setattr(linalg, "rref", lambda rows: calls.append(rows) or oracle_linalg.rref(rows))
        assert linalg.rank(rows) == expected
    # Distinct leads decide the rank without an elimination; a repeated one eliminates.
    assert (calls == []) == _leads_are_distinct(rows, bool)


@given(lead_shaped(square=True, gaussian=False))
@settings(max_examples=400, deadline=None)
def test_int_singular_certificate_matches_elimination(rows):
    assert linalg.int_singular(rows) == oracle_linalg.int_singular(rows) == (linalg.bareiss_det(rows) == 0)


def test_int_singular_on_sparse_matrices_with_repeated_leads():
    """Under the oracle's ``SPARSE_FILL`` with a repeated lead, where it eliminates on dict rows."""
    r = random.Random(40)
    outcomes = set()
    for k in range(40):
        n = r.randint(6, 12)
        rows = [[0] * n for _ in range(n)]
        for j, row in enumerate(rows):
            row[j] = r.choice([-2, 1, 3, 10**30])
        a, b = sorted(r.sample(range(n), 2))
        rows[b][a] = r.choice([-1, 5])  # row b now leads in row a's column
        if k % 2:
            rows[b] = [r.choice([1, -2]) * x for x in rows[a]]  # and is a multiple of it
        assert n * n - sum([row.count(0) for row in rows]) < oracle_linalg.SPARSE_FILL * n * n
        assert linalg._distinct_leads(next((j for j, x in enumerate(row) if x), None) for row in rows) is None
        singular = linalg.int_singular(rows)
        assert singular == oracle_linalg.int_singular(rows) == (linalg.bareiss_det(rows) == 0)
        outcomes.add(singular)
    assert outcomes == {False, True}


def test_lattice_saturation():
    assert linalg.lattice_is_saturated([[2, -3]])
    assert linalg.lattice_is_saturated([[1, 1, -2]])
    assert not linalg.lattice_is_saturated([[2, 0]])
    assert not linalg.lattice_is_saturated([[2, 0], [0, 3]])
    assert linalg.lattice_is_saturated([[1, 0], [0, 1]])
    assert not linalg.lattice_is_saturated([[2, 2], [0, 4]])
    assert linalg.lattice_is_saturated([])


@st.composite
def int_lattices(draw):
    """Small integer generator matrices, often rank-deficient or of index > 1."""
    ncols = draw(st.integers(1, 5))
    entry = st.integers(-4, 4)
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=4))
    if rows and draw(st.booleans()):
        k = draw(st.integers(0, len(rows) - 1))
        rows.append([draw(st.integers(-3, 3)) * x for x in rows[k]])
    if rows and draw(st.booleans()):
        rows[0] = [draw(st.sampled_from([2, 3, -2])) * x for x in rows[0]]
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [0] * ncols)
    return rows


def _check_invariant_factors(rows):
    before = [list(row) for row in rows]
    factors = linalg.invariant_factors(rows)
    assert rows == before
    assert len(factors) == linalg.rank([[GaussianRational(x) for x in row] for row in rows])
    assert all(d > 0 for d in factors)
    assert all(b % a == 0 for a, b in zip(factors, factors[1:]))
    assert prod(factors) == oracle_linalg.maximal_minors_gcd(rows)
    assert linalg.lattice_is_saturated(rows) == oracle_linalg.lattice_is_saturated(rows)


@given(int_lattices())
@settings(max_examples=300, deadline=None)
def test_invariant_factors_match_the_minors_oracle(rows):
    _check_invariant_factors(rows)


@pytest.mark.parametrize(
    "rows",
    [
        [],
        [[0, 0]],
        [[0], [0]],
        [[1]],
        [[6]],
        [[2], [3]],
        [[2], [4]],
        [[2, 4], [1, 2]],
        [[0, 0], [2, 0]],
        [[2, 0], [0, 3]],
        [[4, 6, 10], [6, 9, 15]],
    ],
)
def test_invariant_factors_edge_shapes(rows):
    _check_invariant_factors(rows)


def test_invariant_factors_known():
    assert linalg.invariant_factors([[2, 0], [0, 3]]) == [1, 6]
    assert linalg.invariant_factors([[2, 4, 4], [-6, 6, 12], [10, -4, -16]]) == [2, 6, 12]
    assert linalg.invariant_factors([[2], [4]]) == [2]


def test_saturation_of_a_rank_12_lattice_is_fast():
    # Doubling one generator gives index 2: every maximal minor is even, so the
    # minors test would enumerate all C(24, 12) of them.
    rng = random.Random(12)
    rows = [[rng.randint(-3, 3) for _ in range(24)] for _ in range(12)]
    doubled = [[2 * x for x in rows[0]]] + rows[1:]
    start = time.perf_counter()
    factors = linalg.invariant_factors(doubled)
    saturated = linalg.lattice_is_saturated(doubled)
    elapsed = time.perf_counter() - start
    assert len(factors) == 12 and factors[-1] % 2 == 0
    assert not saturated
    assert elapsed < 1.0
    assert linalg.lattice_is_saturated([[int(i == j) for j in range(12)] + row[12:] for i, row in enumerate(rows)])


def test_clear_denominators():
    assert linalg.clear_denominators([(1, 1), (-2, 3)]) == [3, -2]
    assert linalg.clear_denominators([(2, 1), (4, 1)]) == [1, 2]
    assert linalg.clear_denominators([(1, 2), (1, 3)]) == [3, 2]
    assert linalg.clear_denominators([(2, 4), (-3, 9)]) == [3, -2]
    assert linalg.clear_denominators([]) == []
    assert linalg.clear_denominators([(0, 1), (0, 1)]) == [0, 0]


def test_clear_denominators_matches_the_oracle():
    r = random.Random(4931)
    for _ in range(500):
        pairs = [(r.randint(-6, 6), r.randint(1, 6)) for _ in range(r.randint(0, 5))]
        values = [Fraction(n, d) for n, d in pairs]
        assert linalg.clear_denominators(pairs) == oracle_linalg.clear_denominators(values)


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
    expected = oracle_linalg.rref(rows)
    assert linalg.rref(rows) == expected
    assert sparse_path(rows) == expected
    assert oracle_linalg.rref_dense(rows) == expected


@pytest.mark.parametrize("unit", [-ONE, I, -I], ids=["-1", "i", "-i"])
def test_rref_unit_running_pivot(unit):
    """The running pivot d may be a unit other than 1, which ``rref`` does not divide by."""
    g = GaussianRational
    # The first pivot is the unit itself.
    first = [[unit, ONE, g(2), ZERO], [ONE, unit, g(3), ONE], [g(2), ONE, unit, ONE]]
    # The first pivot is 1 and the second one, 1 + unit - 1, is the unit.
    second = [[ONE, ONE, g(2), ONE], [ONE, ONE + unit, ZERO, g(2)], [ZERO, ONE, ONE, g(3)]]
    for rows in (first, second):
        reduced, pivots = linalg.rref(rows)
        assert (reduced, pivots) == oracle_linalg.rref(rows)
        assert pivots == [0, 1, 2]


# -- rref against the Fraction oracle and the two eliminators it replaced -------

# Entries of every kind an eliminator treats differently: units (running
# pivots of -1, i and -i), small Gaussian rationals (non-unit pivots) and
# entries hundreds of digits long.
huge = st.integers(-(10**300), 10**300)
path_entries = st.one_of(
    st.sampled_from([ONE, -ONE, I, -I]),
    qi,
    st.builds(GaussianRational, st.builds(Fraction, huge, st.integers(1, 10**200)), huge),
)


@st.composite
def filled_matrices(draw):
    """Matrices of any fill from 0 to 100%, with zero rows, down to no rows or one column."""
    nrows = draw(st.integers(0, 8))
    ncols = draw(st.integers(1, 9)) if nrows else 0
    fill = draw(st.floats(0, 1))
    rows = [
        [draw(path_entries) if draw(st.floats(0, 1)) < fill else ZERO for _ in range(ncols)]
        for _ in range(nrows)
    ]
    if rows and draw(st.booleans()):
        rows.insert(draw(st.integers(0, nrows)), [ZERO] * ncols)
    return rows


def z_rows(rows):
    """Rows scaled to Z[i] as ``{col: (re, im)}``, the sparse oracle's input."""
    out = []
    for row in rows:
        den = prod(x.d for x in row)
        out.append({j: (x.a * den // x.d, x.b * den // x.d) for j, x in enumerate(row) if x})
    return out


def sparse_path(rows):
    return oracle_linalg.rref_sparse(z_rows(rows), len(rows[0]) if rows else 0)


@given(filled_matrices())
@settings(max_examples=300, deadline=None)
def test_each_rref_path_matches_oracle(rows):
    expected = oracle_linalg.rref(rows)
    assert linalg.rref(rows) == expected
    assert sparse_path(rows) == expected
    assert oracle_linalg.rref_dense(rows) == expected


# -- kernels read off reduced rows, against the nullspace that reduced each call --

zi = st.builds(GaussianRational, st.integers(-3, 3), st.integers(-3, 3))


@st.composite
def zi_matrices(draw):
    """Random Z[i] matrices, sparse or dense, with zero rows and repeated rows."""
    nrows = draw(st.integers(0, 7))
    ncols = draw(st.integers(1, 8))
    fill = draw(st.sampled_from([0.15, 0.5, 1.0]))
    rows = [[draw(zi) if draw(st.floats(0, 1)) < fill else ZERO for _ in range(ncols)] for _ in range(nrows)]
    if rows and draw(st.booleans()):
        rows.append(list(rows[draw(st.integers(0, len(rows) - 1))]))
    return rows


@given(st.one_of(zi_matrices(), qi_matrices(), filled_matrices()))
@settings(max_examples=300, deadline=None)
def test_kernel_of_reduced_rows_matches_the_nullspace_oracle(rows):
    ncols = len(rows[0]) if rows else 3
    expected = oracle_linalg.nullspace(rows, ncols)
    assert linalg.kernel(*linalg.rref(rows), ncols) == expected
    assert linalg.nullspace(rows, ncols) == expected
    # Reading the kernel reduces nothing: it takes rows already in echelon form.
    reduced, pivots = oracle_linalg.rref(rows)
    assert linalg.kernel(reduced, pivots, ncols) == expected


def _fallback_matrix():
    """Under the oracle's ``SPARSE_FILL``; the pivot row of column 0 fills the first row.

    Row 0 has 7 of 10 entries; row 1 is the sparsest with an entry in column 0,
    so row 0 becomes row 0 - row 1 with 9 entries.
    """
    g = GaussianRational
    rows = [[ONE] * 7 + [ZERO] * 3, [ONE] + [ZERO] * 6 + [g(2), I, g(Fraction(-1, 3))]]
    rows += [[ZERO] * 10 for _ in range(4)]
    rows.append([ZERO] * 9 + [g(3, 1)])
    return rows


def test_the_mid_reduction_fallback_fires_and_matches_the_oracle():
    """A sparse matrix that fills in mid-reduction, the shape that once tested
    the sparse path's hand-off to the dense one."""
    rows = _fallback_matrix()
    nonzero = sum(1 for row in rows for x in row if x)
    assert nonzero < oracle_linalg.SPARSE_FILL * len(rows) * len(rows[0])
    assert sum(1 for a, b in zip(rows[0], rows[1]) if a - b) == 9
    expected = oracle_linalg.rref(rows)
    assert linalg.rref(rows) == expected
    assert sparse_path(rows) == expected
    assert oracle_linalg.rref_dense(rows) == expected


def test_the_fallback_matches_the_oracle_at_any_bound():
    """Every row has an entry in column 0 and support 0.3, 0.5 or 0.75 of the
    columns, so the first pivot fills most rows in."""
    r = random.Random(12)
    for bound in (0.3, 0.5, 0.75):
        for _ in range(40):
            ncols = r.randint(8, 14)
            rows = []
            for _ in range(r.randint(2, 8)):
                support = [0] + r.sample(range(1, ncols), int(bound * ncols) - 1)
                rows.append([
                    GaussianRational(r.choice([1, 2, -3]), r.choice([0, 0, 1])) if j in support else ZERO
                    for j in range(ncols)
                ])
            expected = oracle_linalg.rref(rows)
            assert linalg.rref(rows) == expected
            assert sparse_path(rows) == expected
            assert oracle_linalg.rref_dense(rows) == expected


def _sparse_plus_dense_row(n):
    """Rows with two entries each, plus one row full of distinct entries."""
    g = GaussianRational
    rows = [[ZERO] * n for _ in range(n - 1)]
    for k, row in enumerate(rows):
        row[k], row[(k + 3) % n] = g(k % 3 + 1), g(-1, k % 2)
    rows.insert(n // 2, [g(j + 1, j % 3 - 1) for j in range(n)])
    return rows


def _arrow(n):
    """A full first row and first column, and a diagonal."""
    g = GaussianRational
    rows = [[g(k % 4 + 1) if k == j else ZERO for j in range(n)] for k in range(n)]
    for k in range(n):
        rows[0][k] = rows[k][0] = g(k + 2, k % 2)
    return rows


@pytest.mark.parametrize("shape", [_sparse_plus_dense_row, _arrow], ids=["dense-row", "arrow"])
@pytest.mark.parametrize("n", [6, 13, 24])
def test_adversarial_shapes_match_the_oracle(shape, n):
    # Both shapes are square and nonsingular, so their reduced form is the
    # identity whatever went wrong on the way; a right-hand column keeps a
    # free column in the form, A^-1 b, that shows a wrong entry.
    rows = [row + [GaussianRational(k % 5 - 2, k % 3)] for k, row in enumerate(shape(n))]
    expected = oracle_linalg.rref(rows)
    assert linalg.rref(rows) == expected
    assert sparse_path(rows) == expected
    assert oracle_linalg.rref_dense(rows) == expected


# -- lazy row scales: a row skips the steps that do not touch it ---------------

BIG = 10**30


def _idle_row_matrix():
    """Pivots 2 + i, 3, -i and 1 - 2i on columns 0-3, then two rows of
    30-digit entries.  Row x meets the first pivot, sits out steps 1-3 and is
    updated at step 4, where its divisor is the first pivot's, not the
    latest; row y, the pivot of step 4, sits out steps 0-3."""
    g = GaussianRational
    return [
        [g(2, 1), ZERO, ZERO, ZERO, ZERO, g(BIG + 7, -3), g(5), ZERO],
        [ZERO, g(3), ZERO, ZERO, ZERO, g(1, 1), ZERO, g(-BIG, 11)],
        [ZERO, ZERO, -I, ZERO, ZERO, g(4), g(BIG, BIG - 1), ZERO],
        [ZERO, ZERO, ZERO, g(1, -2), ZERO, ZERO, g(-7, 2), g(BIG + 1)],
        [g(BIG - 3, 2 * BIG + 1), ZERO, ZERO, ZERO, g(3 * BIG + 5, -BIG), g(-2, 9), ZERO, g(BIG // 7, 13)],
        [ZERO, ZERO, ZERO, ZERO, g(11 - BIG, 7 * BIG), g(13, -1), g(BIG + 2, -5), ZERO],
    ]


def _stale_pivot_matrix():
    """Row x meets the pivot 2 + i of step 0, sits out step 1 (pivot 3 (2 + i))
    and is the pivot of step 2, so it is first scaled from step 0's divisor to
    step 1's; row b, the pivot of step 1, is scaled up from the divisor 1."""
    g = GaussianRational
    return [
        [g(2, 1), ZERO, g(BIG, 3), ONE, ZERO],
        [ZERO, g(3), ZERO, g(5), g(BIG - 1, -7)],
        [g(1, -2), ZERO, g(7), g(BIG + 9), g(3)],
        [ZERO, g(1, 1), g(4), ONE, g(BIG + 3)],
    ]


@pytest.mark.parametrize("make", [_idle_row_matrix, _stale_pivot_matrix], ids=["idle-row", "stale-pivot"])
def test_rows_left_behind_are_divided_by_their_own_step(make):
    rows = make()
    expected = oracle_linalg.rref(rows)
    assert linalg.rref(rows) == expected
    assert sparse_path(rows) == expected
    assert oracle_linalg.rref_dense(rows) == expected
    # Every row is independent, so each pivot divides rows of 30 digits and more.
    assert len(expected[1]) == len(rows)
    # Any row order reaches the same form by other pivot rows and other idle spells.
    assert linalg.rref(rows[::-1]) == expected


int_entry = st.one_of(st.integers(-3, 3), st.sampled_from([BIG, 1 - BIG, 7 * BIG + 3]))


@st.composite
def integer_matrices(draw):
    """Matrices over Z (every imaginary part 0), of any fill, with zero and repeated rows."""
    nrows = draw(st.integers(0, 8))
    ncols = draw(st.integers(1, 9))
    fill = draw(st.sampled_from([0.1, 0.3, 0.6, 1.0]))
    rows = [
        [GaussianRational(draw(int_entry)) if draw(st.floats(0, 1)) < fill else ZERO for _ in range(ncols)]
        for _ in range(nrows)
    ]
    if rows and draw(st.booleans()):
        rows.append([GaussianRational(draw(st.sampled_from([2, -3]))) * x for x in rows[0]])
    return rows


@given(integer_matrices())
@settings(max_examples=200, deadline=None)
def test_integer_matrices_match_the_oracles(rows):
    expected = oracle_linalg.rref(rows)
    assert linalg.rref(rows) == expected
    assert sparse_path(rows) == expected
    assert oracle_linalg.rref_dense(rows) == expected


@st.composite
def coupled_blocks(draw):
    """Z[i] blocks on the diagonal, each with up to two more columns than rows
    so that the reduced rows keep free entries, a few coupling entries
    between blocks and a few rows that mix two others, in a random row order.
    A block's rows sit out the pivots of the blocks before it until a
    coupling entry reaches them."""
    entry = st.builds(GaussianRational, int_entry, int_entry)
    shapes = draw(st.lists(st.tuples(st.integers(1, 3), st.integers(0, 2)), min_size=2, max_size=4))
    ncols = sum(h + extra for h, extra in shapes)
    rows, start = [], 0
    for h, extra in shapes:
        for _ in range(h):
            row = [ZERO] * ncols
            row[start : start + h + extra] = [draw(entry) for _ in range(h + extra)]
            rows.append(row)
        start += h + extra
    for _ in range(draw(st.integers(0, 3))):
        rows[draw(st.integers(0, len(rows) - 1))][draw(st.integers(0, ncols - 1))] = draw(entry)
    for _ in range(draw(st.integers(0, 2))):
        a, b = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        unit = draw(st.sampled_from([ONE, -ONE, I, -I]))
        rows.append([x + unit * y for x, y in zip(rows[a], rows[b])])
    return draw(st.permutations(rows))


@given(coupled_blocks())
@settings(max_examples=200, deadline=None)
def test_coupled_blocks_match_the_oracle(rows):
    assert linalg.rref(rows) == oracle_linalg.rref(rows)


# -- two pivots per pass, against the one-step eliminator and the Fraction oracle --

UNITS = (ONE, -ONE, I, -I)
# The nested row update of ``rref``: called with ``exact=True`` once per
# two-pivot pass (for y''), and with a second column c2 >= 0 for its other rows.
UPDATE = next(
    code for code in linalg.rref.__code__.co_consts if isinstance(code, types.CodeType) and code.co_name == "update"
)


def _reduce_and_count(rows):
    """``linalg.rref(rows)``, and what its row updates met: two-pivot passes
    (``pair``); rows of a two-pivot pass holding column c only, c + 1 only or
    both (``c``, ``c+1``, ``both``); such rows left at a scale older than the
    pass's first (``older``); and updates by a pivot of -1, i or -i (``unit``)."""
    seen = Counter()

    def hook(frame, event, arg):
        if event != "call" or frame.f_code is not UPDATE:
            return
        f = frame.f_locals
        seen["pair"] += f["exact"]
        seen["unit"] += (f["p_re"], f["p_im"]) in ((-1, 0), (0, 1), (0, -1))
        if f["c2"] >= 0:
            for x, s in f["targets"]:
                seen[{(True, False): "c", (False, True): "c+1", (True, True): "both"}[f["c"] in x, f["c2"] in x]] += 1
                seen["older"] += s < len(f["divisors"]) - 3

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        return linalg.rref(rows), seen
    finally:
        sys.setprofile(previous)


def _two_pivot_matrix(r: random.Random):
    """A seeded Z or Z[i] matrix: dense or with holes, small or 30-digit
    entries, many units; sometimes a zero 2 x 2 minor on the first two
    columns, a dependent row or a row times a unit, in a shuffled row order."""
    g = GaussianRational
    nrows, ncols = r.randint(2, 8), r.randint(2, 10)
    gaussian, big, fill = r.random() < 0.7, r.random() < 0.25, r.choice([0.4, 0.7, 1.0])

    def part():
        return r.choice([BIG - 1, -BIG, 7 * BIG + 3]) if big and r.random() < 0.5 else r.randint(-3, 3)

    def entry():
        if r.random() < 0.3:
            return r.choice(UNITS if gaussian else UNITS[:2])
        return g(part(), part() if gaussian else 0)

    rows = [[entry() if r.random() < fill else ZERO for _ in range(ncols)] for _ in range(nrows)]
    if r.random() < 0.3:
        factor = r.choice([*UNITS, g(2), g(1, 1)])
        rows[1][:2] = [factor * x for x in rows[0][:2]]
    if r.random() < 0.3:
        a, b = r.randrange(nrows), r.randrange(nrows)
        rows.append([x + r.choice(UNITS) * y for x, y in zip(rows[a], rows[b])])
    if r.random() < 0.3:
        k = r.randrange(len(rows))
        rows[k] = [r.choice(UNITS) * x for x in rows[k]]
    r.shuffle(rows)
    return rows


def test_two_pivot_passes_match_the_one_step_eliminator_and_the_oracle():
    r = random.Random(3030)
    seen = Counter()
    deficient = 0
    for _ in range(400):
        rows = _two_pivot_matrix(r)
        reduced, counts = _reduce_and_count(rows)
        assert reduced == oracle_linalg.rref_one_step(rows) == oracle_linalg.rref(rows)
        seen += counts
        deficient += len(reduced[1]) < min(len(rows), len(rows[0]))
    # The set reaches every case the two-pivot step treats apart.
    assert deficient >= 20
    assert min(seen[k] for k in ("pair", "c", "c+1", "both", "older", "unit")) >= 20, seen


def test_a_dense_matrix_takes_its_pivots_in_pairs():
    g = GaussianRational
    r = random.Random(8)
    dense = [[g(r.choice([-3, -2, -1, 1, 2, 3]), r.randint(-3, 3)) for _ in range(8)] for _ in range(6)]
    reduced, seen = _reduce_and_count(dense)
    assert reduced == oracle_linalg.rref_one_step(dense) == oracle_linalg.rref(dense)
    assert reduced[1] == [0, 1, 2, 3, 4, 5] and seen["pair"] == 3
    # y = row 0 and z = row 1 have the zero minor 1 * 4 - 2 * 2 on columns 0
    # and 1, so column 0 is taken alone, and column 1 has no pivot left.
    singular = [[g(1), g(2), g(3), g(1)], [g(2), g(4), g(5), I], [g(0), g(1), g(7), g(1)]]
    reduced, seen = _reduce_and_count(singular)
    assert reduced == oracle_linalg.rref_one_step(singular) == oracle_linalg.rref(singular)
    assert reduced[1] == [0, 1, 2] and seen["pair"] == 1


# -- sparse matvec against the dense oracle ------------------------------------

# Zero is drawn often so that sparse rows, sparse vectors and all-zero inputs come up.
sparse_qi = st.one_of(st.just(ZERO), qi)


@st.composite
def matvec_inputs(draw):
    """A matrix and a vector of matching width: dense, sparse, all-zero or zero-width."""
    ncols = draw(st.integers(0, 7))
    kinds = st.sampled_from([qi, sparse_qi, st.just(ZERO)])
    rows = draw(st.lists(st.lists(draw(kinds), min_size=ncols, max_size=ncols), max_size=6))
    v = draw(st.lists(draw(kinds), min_size=ncols, max_size=ncols))
    return rows, v


@given(matvec_inputs())
@settings(max_examples=300, deadline=None)
def test_matvec_matches_oracle(inputs):
    rows, v = inputs
    assert linalg.matvec(rows, v) == oracle_aim.matvec(rows, v)


@pytest.mark.parametrize(
    "rows, v",
    [
        ([], [ONE, I]),
        ([[], []], []),
        ([[ZERO, ZERO], [ZERO, ZERO]], [ONE, -I]),
        ([[ONE, I], [ZERO, ZERO]], [ZERO, ZERO]),
        ([[ONE, ZERO, GaussianRational(Fraction(1, 2))], [ZERO, I, ZERO]], [I, ZERO, GaussianRational(2)]),
    ],
    ids=["no-rows", "empty-rows", "zero-matrix", "zero-vector", "sparse"],
)
def test_matvec_edge_shapes(rows, v):
    assert linalg.matvec(rows, v) == oracle_aim.matvec(rows, v)


# -- sparse reduce_vector against the dense oracle ------------------------------


@st.composite
def reduce_inputs(draw):
    """An rref basis and a vector: dense, sparse or zero, inside or outside the span."""
    rows, pivots = linalg.rref(draw(qi_matrices()))
    ncols = len(rows[0]) if rows else draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["dense", "sparse", "zero", "in-span"]))
    if kind == "in-span" and rows:
        coords = draw(st.lists(sparse_qi, min_size=len(rows), max_size=len(rows)))
        v = [sum((c * row[j] for c, row in zip(coords, rows)), start=ZERO) for j in range(ncols)]
    else:
        entries = {"dense": qi, "sparse": sparse_qi}.get(kind, st.just(ZERO))
        v = draw(st.lists(entries, min_size=ncols, max_size=ncols))
    return v, rows, pivots, kind


@given(reduce_inputs())
@settings(max_examples=300, deadline=None)
def test_reduce_vector_matches_oracle(inputs):
    v, rows, pivots, kind = inputs
    residual = linalg.reduce_vector(v, rows, pivots)
    assert residual == oracle_linalg.reduce_vector(v, rows, pivots)
    if kind in ("zero", "in-span"):
        assert linalg.is_zero_vector(residual)
        assert linalg.in_span(v, rows, pivots)
    assert all(not residual[p] for p in pivots)
