"""The exact integer kernels against plain per-entry references.

Every exact product, trace form and elimination in ``linalg`` runs on
integer numerators over a common denominator.  The references below use
nothing but ``GaussianRational`` arithmetic entry by entry (cofactor
expansion for determinants), so a slip in the numerator bookkeeping shows
up as a changed value.
"""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_unimodular_exact
from tracelab.errors import BackendMismatch, SpectralPole
from tracelab.linalg import Matrix, charpoly, nullspace, rank, root_candidates, solve_exact
from tracelab.scalars import DEFAULT_CONTEXT, EXACT, GR_ONE, GR_ZERO, GaussianRational
from tracelab.spectral import _eigen_pairs_for_probe

# -- per-entry references --------------------------------------------------------


def ref_product(a, b):
    return [[sum((x * y for x, y in zip(row, col)), GR_ZERO) for col in zip(*b)] for row in a]


def ref_det(m):
    if not m:
        return GR_ONE
    return sum(
        (
            (-1) ** j * m[0][j] * ref_det([row[:j] + row[j + 1:] for row in m[1:]])
            for j in range(len(m))
        ),
        GR_ZERO,
    )


def ref_rref(rows):
    mat = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(len(mat[0])):
        piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = GR_ONE / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return mat[:r], pivots


def ref_nullspace(rows):
    red, pivots = ref_rref(rows)
    cols = len(rows[0])
    basis = []
    for f in (c for c in range(cols) if c not in pivots):
        v = [GR_ZERO] * cols
        v[f] = GR_ONE
        for row, p in zip(red, pivots):
            v[p] = -row[f]
        basis.append(tuple(v))
    return basis


def identity(n):
    return [[GR_ONE if i == j else GR_ZERO for j in range(n)] for i in range(n)]


def shifted(grid, lam):
    """``grid - lam * I``."""
    return [[x - lam if i == j else x for j, x in enumerate(row)] for i, row in enumerate(grid)]


# -- strategies ---------------------------------------------------------------------

PARTS = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3, 4, 6, 9]))
# zero, real, purely imaginary and general entries: each side of the
# kernel's zero-imaginary shortcut gets exercised
SCALARS = st.one_of(
    st.just(GR_ZERO),
    st.builds(GaussianRational, PARTS),
    st.builds(GaussianRational, st.just(0), PARTS),
    st.builds(GaussianRational, PARTS, PARTS),
)


@st.composite
def grids(draw, rows=None, cols=None):
    """Entry lists with mixed denominators; some rows zero, some multiples
    of earlier rows, so singular and rank-deficient cases are common."""
    rows = draw(st.integers(1, 5)) if rows is None else rows
    cols = draw(st.integers(1, 5)) if cols is None else cols
    grid = []
    for i in range(rows):
        kind = draw(st.sampled_from(["random"] * 4 + ["zero", "multiple"]))
        if kind == "zero":
            grid.append([GR_ZERO] * cols)
        elif kind == "multiple" and i:
            factor = draw(SCALARS)
            grid.append([factor * x for x in grid[draw(st.integers(0, i - 1))]])
        else:
            grid.append([draw(SCALARS) for _ in range(cols)])
    return grid


@st.composite
def product_pairs(draw):
    r, k, c = (draw(st.integers(1, 5)) for _ in range(3))
    return draw(grids(r, k)), draw(grids(k, c))


@st.composite
def trace_pairs(draw):
    r, k = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    return draw(grids(r, k)), draw(grids(k, r))


@st.composite
def square_grids(draw):
    return draw(grids(*[draw(st.integers(1, 5))] * 2))


def approx(grid):
    return Matrix(grid, EXACT).to_approx()


SETTINGS = settings(max_examples=150, deadline=None)

# -- products ---------------------------------------------------------------------------


class TestProducts:
    @SETTINGS
    @given(pair=product_pairs())
    def test_matmul(self, pair):
        a, b = pair
        assert (Matrix(a, EXACT) @ Matrix(b, EXACT)).entries == tuple(
            map(tuple, ref_product(a, b))
        )
        got = (approx(a) @ approx(b)).to_numpy()
        assert np.allclose(got, Matrix(ref_product(a, b), EXACT).to_numpy(), atol=1e-12)

    @SETTINGS
    @given(pair=product_pairs())
    def test_apply(self, pair):
        a, b = pair
        vector = tuple(row[0] for row in b)
        expected = tuple(row[0] for row in ref_product(a, [[x] for x in vector]))
        assert Matrix(a, EXACT).apply(vector) == expected
        # approx: an exact-backend primitive; float callers multiply ndarrays
        with pytest.raises(BackendMismatch):
            approx(a).apply(tuple(x.to_complex() for x in vector))

    @SETTINGS
    @given(pair=trace_pairs())
    def test_trace_product(self, pair):
        a, b = pair
        square = ref_product(a, b)
        expected = sum((square[i][i] for i in range(len(square))), GR_ZERO)
        assert Matrix(a, EXACT).trace_product(Matrix(b, EXACT)) == expected
        # approx: exactly the trace of the float product
        fa, fb = approx(a), approx(b)
        assert fa.trace_product(fb) == (fa @ fb).trace()

    def test_trace_product_shape_mismatch(self):
        a = Matrix(identity(2), EXACT)
        with pytest.raises(ValueError):
            a.trace_product(Matrix([[GR_ONE] * 3] * 2, EXACT))


# -- approx numpy expressions ------------------------------------------------------------


def near(f, e):
    """An approx matrix within rounding of the exact one (numpy may sum
    and multiply in another order than a per-entry loop)."""
    tol = 1e-12 * max(1.0, e.scale_bound())
    return f.shape == e.shape and np.allclose(f.to_numpy(), e.to_numpy(), rtol=0, atol=tol)


class TestApproxAgainstExact:
    """Each approx operation is a numpy expression; the exact backend is
    its oracle.  No nonzero entry drawn here is near the zero threshold,
    so every tolerance decision must match the exact one."""

    @SETTINGS
    @given(pair=trace_pairs(), scalar=SCALARS)
    def test_arithmetic(self, pair, scalar):
        ea, eb = Matrix(pair[0], EXACT), Matrix(pair[1], EXACT).transpose()
        fa, fb = ea.to_approx(), eb.to_approx()
        assert near(fa + fb, ea + eb) and near(fa - fb, ea - eb) and near(-fa, -ea)
        assert near(fa.scale(scalar), ea.scale(scalar)) and near(fa.transpose(), ea.transpose())
        assert abs(fa.scale_bound() - ea.scale_bound()) <= 1e-12 * max(1.0, ea.scale_bound())
        assert np.allclose(fa.columns(), Matrix(ea.columns(), EXACT).to_numpy(), rtol=0, atol=1e-12)
        assert fa.agrees_with(fb) is (ea == eb) and fa.agrees_with(ea.to_approx())

    @SETTINGS
    @given(grid=square_grids(), data=st.data())
    def test_blocks_and_decisions(self, grid, data):
        e = Matrix(grid, EXACT)
        f = e.to_approx()
        n = e.rows
        lo, hi = sorted(data.draw(st.integers(0, n)) for _ in range(2))
        assert near(f.diagonal_block(lo, hi), e.diagonal_block(lo, hi))
        assert abs(f.trace() - e.trace().to_complex()) <= 1e-12 * max(1.0, n * e.scale_bound())
        offsets = sorted({0, n, *data.draw(st.lists(st.integers(0, n), max_size=3))})
        assert f.lower_blocks_negligible(offsets, 10) is e.lower_blocks_negligible(offsets, 10)
        assert f.is_zero() is e.is_zero()


# -- elimination ---------------------------------------------------------------------------


class TestElimination:
    @SETTINGS
    @given(grid=square_grids())
    def test_det(self, grid):
        assert Matrix(grid, EXACT).det() == ref_det(grid)

    @SETTINGS
    @given(grid=square_grids())
    def test_inverse(self, grid):
        m = Matrix(grid, EXACT)
        if not ref_det(grid):
            with pytest.raises(SpectralPole):
                m.inverse()
            return
        inv = m.inverse()
        assert ref_product(grid, [list(r) for r in inv.entries]) == identity(len(grid))

    @SETTINGS
    @given(grid=grids())
    def test_rank_and_nullspace(self, grid):
        m = Matrix(grid, EXACT)
        _, pivots = ref_rref(grid)
        assert rank(m) == len(pivots)
        basis = nullspace(m)
        assert basis == ref_nullspace(grid)
        for v in basis:
            assert all(not x for x in m.apply(v))

    @SETTINGS
    @given(data=st.data())
    def test_solve_exact(self, data):
        grid = data.draw(square_grids())
        rhs = data.draw(grids(len(grid), data.draw(st.integers(1, 3))))
        sol = solve_exact(Matrix(grid, EXACT), Matrix(rhs, EXACT))
        if not ref_det(grid):
            assert sol is None
        else:
            assert ref_product(grid, [list(r) for r in sol.entries]) == rhs


# -- characteristic polynomial probes ---------------------------------------------------------

SMALL_ROOTS = [
    GaussianRational(a, b) for a, b in [(0, 0), (1, 0), (-1, 0), (2, 0), (0, 1), (1, -1)]
]


@st.composite
def probe_matrices(draw):
    """Triangular matrices with small (often repeated) eigenvalues, hidden
    by a unimodular change of basis, plus rational diagonals off the
    candidate list."""
    n = draw(st.integers(1, 5))
    diag = [draw(st.sampled_from(SMALL_ROOTS) | SCALARS) for _ in range(n)]
    grid = [
        [diag[i] if i == j else (draw(SCALARS) if j > i else GR_ZERO) for j in range(n)]
        for i in range(n)
    ]
    s = random_unimodular_exact(n, random.Random(draw(st.integers(0, 2**16))))
    return s.inverse() @ Matrix(grid, EXACT) @ s, diag


class TestProbes:
    @SETTINGS
    @given(probe=probe_matrices())
    def test_charpoly_selects_the_determinant_candidates(self, probe):
        # each root's algebraic multiplicity is its count on the hidden
        # triangular diagonal
        t, diag = probe
        n = t.rows
        grid = [list(r) for r in t.entries]
        expected = [
            (lam, diag.count(lam))
            for lam in root_candidates(grid[i][i] for i in range(n))
            if not ref_det(shifted(grid, lam))
        ]
        assert _eigen_pairs_for_probe(t, DEFAULT_CONTEXT) == expected

    @SETTINGS
    @given(grid=square_grids(), lam=SCALARS)
    def test_charpoly_is_the_determinant(self, grid, lam):
        value = GR_ZERO
        for c in charpoly(Matrix(grid, EXACT)):
            value = value * lam + c
        # charpoly(lam) = det(lam I - A) = (-1)^n det(A - lam I)
        assert value == (-1) ** len(grid) * ref_det(shifted(grid, lam))

    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_charpoly_of_larger_rational_matrices(self, data):
        # mixed denominators up to 9 make the common denominator d large,
        # so the scaling of c_k by d^k is exercised at every degree
        n = data.draw(st.integers(6, 12))
        grid = [[data.draw(SCALARS) for _ in range(n)] for _ in range(n)]
        m = Matrix(grid, EXACT)
        coeffs = charpoly(m)
        assert len(coeffs) == n + 1 and coeffs[0] == GR_ONE
        assert coeffs[1] == -m.trace()
        assert coeffs[n] == (-1) ** n * m.det()
        # Cayley-Hamilton by Horner's rule on per-entry products
        value = [[GR_ZERO] * n for _ in range(n)]
        for c in coeffs:
            value = ref_product(value, grid)
            for i in range(n):
                value[i][i] = value[i][i] + c
        assert value == [[GR_ZERO] * n for _ in range(n)]
