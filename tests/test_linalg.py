import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import exact_matrix, gr, random_unimodular_exact
from tracelab import zfactor
from tracelab.errors import (
    BackendMismatch,
    ExactEigenvalueNotInField,
    SizeLimit,
    SpectralPole,
)
from tracelab.linalg import (
    Matrix,
    charpoly,
    eigenvalues,
    factor_gaussian,
    gaussian_rational_roots,
    generalized_eigenspaces,
    intertwiner_space,
    nullspace,
    rank,
    Span,
    resolvent,
    span_of,
)
from tracelab.scalars import APPROX, EXACT, GR_ONE, GR_ZERO, GaussianRational, coerce
from tracelab.zfactor import MAX_MODULAR_FACTORS, factor_list, is_squarefree


def brute_row_reduce(rows):
    """Independent row-reduction oracle over plain Fractions (real case)."""
    mat = [list(map(Fraction, r)) for r in rows]
    pivots = 0
    for col in range(len(mat[0])):
        piv = next((r for r in range(pivots, len(mat)) if mat[r][col]), None)
        if piv is None:
            continue
        mat[pivots], mat[piv] = mat[piv], mat[pivots]
        inv = 1 / mat[pivots][col]
        mat[pivots] = [x * inv for x in mat[pivots]]
        for r in range(len(mat)):
            if r != pivots and mat[r][col]:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[pivots])]
        pivots += 1
    return pivots


class TestApproxSpan:
    def test_zero_vector_and_zero_block_add_nothing(self):
        span = Span(3, APPROX)
        assert not span.add((0j, 0j, 0j))
        assert span.add_block(np.zeros((3, 4))).shape == (3, 0)
        assert span.dim == 0

    def test_repeated_direction_adds_one(self):
        span = Span(3, APPROX)
        v = np.array([1.0, 2.0j, -1.0])
        new = span.add_block(np.column_stack([v, 3 * v, -2j * v]))
        assert new.shape == (3, 1) and span.dim == 1
        assert span.contains(tuple(v))

    def test_orthonormal_block_keeps_its_columns(self):
        # an orthonormal block is its own polar factor
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3)))
        span = span_of([tuple(col) for col in q.T], 5, APPROX)
        assert np.allclose(np.array(span.basis()).T, q, rtol=0, atol=10 * span.ctx.zero_threshold(1))

    def test_extend_full_span_adds_nothing(self):
        span = span_of([(1.0, 1.0), (1.0, -1.0)], 2, APPROX)
        assert span.is_full()
        assert span.extend_to_full() == []

    @pytest.mark.parametrize("n", [1, 4])
    def test_extend_empty_span_is_orthonormal(self, n):
        span = Span(n, APPROX)
        q = np.array(span.extend_to_full()).T
        assert q.shape == (n, n) and span.is_full()
        assert np.allclose(q.conj().T @ q, np.eye(n), rtol=0, atol=10 * span.ctx.zero_threshold(1))

    def test_dimension_one(self):
        span = Span(1, APPROX)
        assert span.add((2.5j,))
        assert not span.add((-1.0,))
        assert span.contains((7.0,)) and span.is_full()
        assert abs(abs(span.basis()[0][0]) - 1) <= span.ctx.zero_threshold(1)

    def test_contains_after_block_add(self):
        rng = np.random.default_rng(5)
        block = rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3))
        span = Span(6, APPROX)
        assert span.add_block(block).shape == (6, 3)
        for col in block.T:
            assert span.contains(tuple(col))
        assert span.contains(tuple(block @ np.array([1.0, -2.0, 0.5j])))
        assert not span.contains(tuple(rng.normal(size=6)))
        completed = span.extend_to_full()
        assert len(completed) == 3 and span.is_full()


APPROX_GRID = [[1 + 2j, 0.5, -1j], [2.0, 1 - 1j, 3.0], [1.0, 1.0, 1.0]]


class TestApproxMatrix:
    """An approx matrix is one read-only complex ndarray and hands back
    Python ``complex`` scalars, never numpy scalars."""

    def test_storage_is_one_read_only_array(self):
        source = np.array(APPROX_GRID)
        m = Matrix(source, APPROX)
        stored = m.to_numpy()
        assert stored is m.to_numpy() and stored is m.entries
        assert stored.shape == (3, 3) and not stored.flags.writeable
        with pytest.raises(ValueError):
            stored[0, 0] = 0
        source[0, 0] = 99  # the constructor copied its input
        assert m.to_numpy()[0, 0] == 1 + 2j

    def test_scalars_are_python_complex(self):
        m = Matrix(APPROX_GRID, APPROX)
        singular = Matrix([[1.0, 2.0], [2.0, 4.0]], APPROX)
        vectors = m.columns() + nullspace(singular) + span_of(m.columns()[:2], 3, APPROX).basis()
        scalars = [m.trace(), m.det(), m.trace_product(m), m.diagonal_block(1, 3).trace()]
        scalars += [x for v in vectors for x in v]
        assert len(scalars) == 4 + 9 + 2 + 6
        assert all(type(x) is complex for x in scalars)

    @pytest.mark.parametrize("backend", [EXACT, APPROX])
    def test_diagonal_block(self, backend):
        m = seam_matrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]], backend)
        assert m.diagonal_block(1, 3) == seam_matrix([[5, 6], [8, 9]], backend)
        assert m.diagonal_block(0, 1) == seam_matrix([[1]], backend)
        assert m.diagonal_block(2, 2).shape == (0, 0)

    @pytest.mark.parametrize("backend", [EXACT, APPROX])
    def test_submatrix(self, backend):
        m = seam_matrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]], backend)
        assert m.submatrix([2, 0], [1]) == seam_matrix([[8], [2]], backend)
        assert m.submatrix(range(1, 3), range(1, 3)) == m.diagonal_block(1, 3)
        assert m.submatrix([], []).shape == (0, 0)

    def test_agrees_with_needs_equal_shapes(self):
        # numpy would broadcast the 1x1 matrix against every entry
        with pytest.raises(ValueError):
            Matrix([[1.0]], APPROX).agrees_with(Matrix([[1.0, 1.0], [1.0, 1.0]], APPROX))


class TestExactSpan:
    def test_pivots_of_the_reduced_echelon_basis(self):
        # the kernel of [1 1 1] spanned by a non-echelon pair
        span = span_of([(gr(-1), gr(1), gr(0)), (gr(-1), gr(0), gr(1))], 3, EXACT)
        assert span.pivots() == [0, 1]
        assert span.basis() == [(gr(1), gr(0), gr(-1)), (gr(0), gr(1), gr(-1))]
        with pytest.raises(BackendMismatch):
            span.extend_to_full()


class TestNullspace:
    def test_zero_matrix_kernel_is_everything(self):
        basis = nullspace(Matrix.zeros(2, 2, EXACT))
        assert len(basis) == 2

    def test_identity_kernel_empty(self):
        assert nullspace(Matrix.identity(3, EXACT)) == []

    def test_rank_one_matrix(self):
        # oracle: independent row reduction says rank 1, so kernel dim 1
        m = exact_matrix([[1, 1], [1, 1]])
        assert brute_row_reduce([[1, 1], [1, 1]]) == 1
        basis = nullspace(m)
        assert len(basis) == 1
        v = basis[0]
        assert all(not x for x in m.apply(v))
        # the kernel vector is proportional to (1, -1)
        assert v[0] == -v[1]

    def test_approx_kernel_via_singular_values(self):
        m = Matrix([[1 + 0j, 1 + 0j], [1 + 0j, 1 + 0j]], APPROX)
        basis = nullspace(m)
        assert len(basis) == 1
        img = m.to_numpy() @ np.array(basis[0])
        assert max(abs(x) for x in img) < 1e-12


class TestGeneralizedEigenspaces:
    def test_diagonal(self):
        m = exact_matrix([[1, 0], [0, 2]])
        decomp = generalized_eigenspaces(m)
        assert [(str(d.eigenvalue), d.dim, d.block_sizes) for d in decomp] == [
            ("1", 1, (1,)),
            ("2", 1, (1,)),
        ]

    def test_jordan_block_two(self):
        # oracle: (M - 3I)^2 = 0 while (M - 3I) != 0
        m = exact_matrix([[3, 1], [0, 3]])
        shift = m - Matrix.identity(2, EXACT).scale(gr(3))
        assert not shift.is_zero()
        assert (shift @ shift).is_zero()
        (data,) = generalized_eigenspaces(m)
        assert str(data.eigenvalue) == "3"
        assert data.dim == 2
        assert data.block_sizes == (2,)
        assert data.index == 2

    def test_nilpotent_three(self):
        m = exact_matrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        (data,) = generalized_eigenspaces(m)
        assert str(data.eigenvalue) == "0"
        assert data.block_sizes == (3,)
        assert data.index == 3

    def test_spaces_sum_to_ambient_and_are_stable(self):
        rng = random.Random(7)
        for _ in range(20):
            dim = rng.randint(2, 5)
            diag = [gr(rng.randint(-2, 2), rng.randint(-1, 1)) for _ in range(dim)]
            rows = [
                [
                    diag[i]
                    if i == j
                    else (gr(rng.randint(-1, 1)) if j > i else GR_ZERO)
                    for j in range(dim)
                ]
                for i in range(dim)
            ]
            s = random_unimodular_exact(dim, rng)
            m = s.inverse() @ Matrix(rows, EXACT) @ s
            decomp = generalized_eigenspaces(m)
            assert sum(d.dim for d in decomp) == dim
            for d in decomp:
                space = span_of(list(d.space_basis), dim, EXACT)
                for v in d.space_basis:
                    assert space.contains(m.apply(v))

    def test_out_of_field_raises(self):
        m = exact_matrix([[0, -1], [1, -1]])  # order three, cube-root eigenvalues
        with pytest.raises(ExactEigenvalueNotInField):
            generalized_eigenspaces(m)

    def test_gaussian_rational_roots_found(self):
        m = exact_matrix([[0, -1], [1, 0]])  # eigenvalues +-i
        decomp = generalized_eigenspaces(m)
        assert sorted(str(d.eigenvalue) for d in decomp) == ["-i", "i"]

    def test_approx_cluster_merging(self):
        m = Matrix(
            [[1 + 0j, 0j, 0j], [0j, 1 + 1e-12j, 0j], [0j, 0j, 2 + 0j]], APPROX
        )
        pairs = eigenvalues(m)
        assert sorted(mult for _, mult in pairs) == [1, 2]


class TestResolvent:
    def test_scalar(self):
        m = Matrix([[GR_ZERO]], EXACT)
        assert resolvent(m, gr(-1)) == Matrix([[GR_ONE]], EXACT)

    def test_diagonal(self):
        m = exact_matrix([[0, 0], [0, 5]])
        r = resolvent(m, gr(-1))
        assert str(r.entries[0][0]) == "1"
        assert str(r.entries[1][1]) == "1/6"
        assert not r.entries[0][1] and not r.entries[1][0]

    def test_jordan_block(self):
        m = exact_matrix([[0, 1], [0, 0]])
        r = resolvent(m, gr(1))
        assert r == exact_matrix([[-1, -1], [0, -1]])
        prod = r @ (m - Matrix.identity(2, EXACT))
        assert prod == Matrix.identity(2, EXACT)

    def test_pole_detection(self):
        m = exact_matrix([[0, 0], [0, 5]])
        with pytest.raises(SpectralPole):
            resolvent(m, gr(5))
        approx = m.to_approx()
        with pytest.raises(SpectralPole):
            resolvent(approx, 5.0 + 1e-14j)

    def test_resolvent_inversion_randomized(self):
        # multiply back to the identity for 100 random matrices
        rng = random.Random(11)
        count = 0
        while count < 100:
            dim = rng.randint(1, 4)
            m = Matrix(
                [
                    [gr(rng.randint(-3, 3), rng.randint(-2, 2)) for _ in range(dim)]
                    for _ in range(dim)
                ],
                EXACT,
            )
            lam = gr(rng.randint(-4, 4), rng.randint(1, 5))  # off the real axis
            shifted = m - Matrix.identity(dim, EXACT).scale(lam)
            if not shifted.det():
                continue
            r = resolvent(m, lam)
            assert r @ shifted == Matrix.identity(dim, EXACT)
            count += 1


class TestIntertwiners:
    def test_scalar_commutant(self):
        a = exact_matrix([[2]])
        basis = intertwiner_space([a], [a])
        assert len(basis) == 1

    def test_distinct_characters_have_no_intertwiner(self):
        assert intertwiner_space([exact_matrix([[1]])], [exact_matrix([[-1]])]) == []

    def test_jordan_self_intertwiners(self):
        # oracle: solve T J = J T by hand; solutions are a I + b N
        j = exact_matrix([[1, 1], [0, 1]])
        basis = intertwiner_space([j], [j])
        assert len(basis) == 2
        expected = span_of(
            [
                (gr(1), gr(0), gr(0), gr(1)),  # identity flattened
                (gr(0), gr(1), gr(0), gr(0)),  # nilpotent flattened
            ],
            4,
            EXACT,
        )
        for t in basis:
            flat = tuple(x for row in t.entries for x in row)
            assert expected.contains(flat)
            assert (t @ j) == (j @ t)

    def test_contains_identity_always(self):
        rng = random.Random(3)
        for _ in range(10):
            dim = rng.randint(1, 3)
            mats = []
            while len(mats) < 2:
                m = Matrix(
                    [
                        [gr(rng.randint(-2, 2), rng.randint(-1, 1)) for _ in range(dim)]
                        for _ in range(dim)
                    ],
                    EXACT,
                )
                if m.det():
                    mats.append(m)
            basis = intertwiner_space(mats, mats)
            ident = Matrix.identity(dim, EXACT)
            flat_ident = tuple(x for row in ident.entries for x in row)
            space = span_of(
                [tuple(x for row in t.entries for x in row) for t in basis],
                dim * dim,
                EXACT,
            )
            assert space.contains(flat_ident)

    def test_generator_list_length_mismatch(self):
        with pytest.raises(ValueError):
            intertwiner_space([exact_matrix([[1]])], [])


class TestPolynomials:
    def test_charpoly_companion(self):
        m = exact_matrix([[0, 0, 2], [1, 0, 0], [0, 1, 0]])  # companion of x^3 - 2
        coeffs = charpoly(m)
        assert [str(c) for c in coeffs] == ["1", "0", "0", "-2"]
        roots, leftover = gaussian_rational_roots(coeffs)
        assert roots == [] and leftover == 3

    def test_charpoly_requires_exact(self):
        with pytest.raises(BackendMismatch):
            charpoly(Matrix.identity(2, APPROX))


def poly_mul(a, b):
    out = [GR_ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def poly_product(factors):
    out = [GR_ONE]
    for factor, mult in factors:
        for _ in range(mult):
            out = poly_mul(out, factor)
    return out


def as_multiset(pairs):
    return sorted(((tuple(f), m) for f, m in pairs), key=repr)


def sympy_qqi_factors(coeffs):
    """The oracle: sympy's factorization over its ``QQ_I`` domain, each
    factor made monic."""
    x = sympy.Symbol("x")
    poly = sympy.Poly(
        [sympy.Rational(c.re) + sympy.I * sympy.Rational(c.im) for c in coeffs],
        x,
        domain="QQ_I",
    )
    out = []
    for factor, mult in poly.factor_list()[1]:
        fac = []
        for c in factor.all_coeffs():
            re, im = sympy.expand(c).as_real_imag()
            fac.append(GaussianRational(Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q))))
        out.append(([c / fac[0] for c in fac], int(mult)))
    return as_multiset(out)


GAUSSIAN_INTEGERS = st.builds(gr, st.integers(-4, 4), st.integers(-4, 4))
GAUSSIAN_RATIONALS = st.builds(
    gr,
    st.fractions(min_value=-4, max_value=4, max_denominator=4),
    st.fractions(min_value=-4, max_value=4, max_denominator=4),
)


@st.composite
def factored_polynomials(draw):
    """A leading scalar times monic factors of degree 1-3, some repeated."""
    coefficients = draw(st.sampled_from([GAUSSIAN_INTEGERS, GAUSSIAN_RATIONALS]))
    factors = [
        (
            [GR_ONE] + draw(st.lists(coefficients, min_size=degree, max_size=degree)),
            draw(st.integers(1, 2)),
        )
        for degree in draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    ]
    lead = draw(GAUSSIAN_INTEGERS.filter(bool))
    return [lead * c for c in poly_product(factors)]


X_MINUS_I, X_PLUS_I = [GR_ONE, gr(0, -1)], [GR_ONE, gr(0, 1)]
X2_PLUS_1, X2_MINUS_5 = [GR_ONE, GR_ZERO, GR_ONE], [GR_ONE, GR_ZERO, gr(-5)]


class TestFactorGaussian:
    # name: (the polynomials multiplied into the input, the expected
    # factors); the norms of x^2 + 1 and of (x - i)(x + i)(x^2 - 5) are not
    # squarefree unshifted, so these two run the shift search
    PINNED = {
        "x^2+1": ([X2_PLUS_1], [(X_MINUS_I, 1), (X_PLUS_I, 1)]),
        "(x-i)(x+i)(x^2-5)": (
            [X_MINUS_I, X_PLUS_I, X2_MINUS_5],
            [(X_MINUS_I, 1), (X_PLUS_I, 1), (X2_MINUS_5, 1)],
        ),
        "(x^2-(1+2i))(x^2+x+3i)(x^2-5)": (
            [[GR_ONE, GR_ZERO, gr(-1, -2)], [GR_ONE, GR_ONE, gr(0, 3)], X2_MINUS_5],
            [([GR_ONE, GR_ZERO, gr(-1, -2)], 1), ([GR_ONE, GR_ONE, gr(0, 3)], 1), (X2_MINUS_5, 1)],
        ),
        "degree one": (
            [[gr(5), gr(-2, -3)]],
            [([GR_ONE, gr(Fraction(-2, 5), Fraction(-3, 5))], 1)],
        ),
        "(x-1)^3(x^2+1)^2": (
            [[GR_ONE, gr(-1)]] * 3 + [X2_PLUS_1] * 2,
            [([GR_ONE, gr(-1)], 3), (X_MINUS_I, 2), (X_PLUS_I, 2)],
        ),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_pinned(self, name):
        factors, expected = self.PINNED[name]
        coeffs = poly_product([(f, 1) for f in factors])
        result = factor_gaussian(coeffs)
        assert as_multiset(result) == as_multiset(expected)
        assert as_multiset(result) == sympy_qqi_factors(coeffs)

    @settings(max_examples=25, deadline=None)
    @given(coeffs=factored_polynomials())
    def test_matches_sympy_qqi(self, coeffs):
        result = factor_gaussian(coeffs)
        assert all(f[0] == GR_ONE for f, _ in result)
        assert as_multiset(result) == sympy_qqi_factors(coeffs)


def int_product(factors):
    out = [1]
    for factor in factors:
        out = [
            sum(out[i] * factor[k - i] for i in range(len(out)) if 0 <= k - i < len(factor))
            for k in range(len(out) + len(factor) - 1)
        ]
    return out


def sympy_integer_factors(coeffs):
    """The oracle: sympy's ``factor_list`` over ZZ, as plain integers."""
    content, factors = sympy.Poly(coeffs, sympy.Symbol("x"), domain="ZZ").factor_list()
    return int(content), sorted(([int(c) for c in g.all_coeffs()], k) for g, k in factors)


def cyclotomic_norm(n):
    """Phi_n(x - i) * Phi_n(x + i): the Trager norm of Phi_n at shift 1."""
    x = sympy.Symbol("x")
    phi = sympy.cyclotomic_poly(n, x)
    norm = sympy.expand(phi.subs(x, x - sympy.I) * phi.subs(x, x + sympy.I))
    return [int(c) for c in sympy.Poly(norm, x).all_coeffs()]


@st.composite
def integer_products(draw):
    """A nonzero integer times 1-4 integer factors of degree 1-4 with
    nonzero (often non-unit) leading coefficients, some repeated."""
    factors = [[draw(st.integers(-6, 6).filter(bool))]]
    for _ in range(draw(st.integers(1, 4))):
        lead = draw(st.integers(-9, 9).filter(bool))
        rest = draw(st.lists(st.integers(-9, 9), min_size=1, max_size=4))
        factors += [[lead, *rest]] * draw(st.integers(1, 3))
    return int_product(factors)


class TestIntegerFactorizer:
    SD2 = [1, 0, -10, 0, 1]  # minimal polynomial of sqrt 2 + sqrt 3
    SD3 = [1, 0, -40, 0, 352, 0, -960, 0, 576]  # ... + sqrt 5
    # name: (polynomial, the expected factor_list)
    PINNED = {
        "Swinnerton-Dyer 4": (SD2, (1, [(SD2, 1)])),
        "Swinnerton-Dyer 8": (SD3, (1, [(SD3, 1)])),
        "Phi_7 norm": (cyclotomic_norm(7), (1, [(cyclotomic_norm(7), 1)])),
        "Phi_9 norm": (cyclotomic_norm(9), (1, [(cyclotomic_norm(9), 1)])),
        "x^12 - 1": (
            [1] + [0] * 11 + [-1],
            (1, [([1, -1], 1), ([1, 1], 1), ([1, -1, 1], 1), ([1, 0, 1], 1),
                 ([1, 1, 1], 1), ([1, 0, -1, 0, 1], 1)]),
        ),
        "linear": ([-6, -4], (-2, [([3, 2], 1)])),
        "SD2^2 (3x - 1)^3 x": (
            int_product([SD2, SD2, [3, -1], [3, -1], [3, -1], [1, 0]]),
            (1, [([1, 0], 1), ([3, -1], 3), (SD2, 2)]),
        ),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_pinned(self, name):
        coeffs, expected = self.PINNED[name]
        assert factor_list(coeffs) == expected
        assert sympy_integer_factors(coeffs) == (expected[0], sorted(expected[1]))

    @settings(max_examples=60, deadline=None)
    @given(coeffs=integer_products())
    def test_matches_sympy(self, coeffs):
        content, factors = factor_list(coeffs)
        assert (content, sorted(factors)) == sympy_integer_factors(coeffs)

    def test_constants(self):
        assert factor_list([]) == (0, [])
        assert factor_list([0, -7]) == (-7, [])

    def test_squarefree(self):
        assert is_squarefree(self.SD2)
        assert not is_squarefree(int_product([[2, 1], [2, 1], [1, 0, 1]]))

    def test_too_many_modular_factors_raise_before_lifting(self, monkeypatch):
        def forbidden(*_args):
            raise AssertionError("lifted past the cap")

        monkeypatch.setattr(zfactor, "_hensel_lift", forbidden)
        # MAX + 1 linear factors stay as many factors mod every prime
        coeffs = int_product([[1, -k] for k in range(1, MAX_MODULAR_FACTORS + 2)])
        with pytest.raises(SizeLimit, match=f"more than {MAX_MODULAR_FACTORS}$"):
            factor_list(coeffs)


class TestProjectorReconstruction:
    def test_projectors_sum_to_identity(self):
        rng = random.Random(23)
        for _ in range(10):
            dim = rng.randint(2, 5)
            diag = [gr(rng.randint(-2, 2)) for _ in range(dim)]
            rows = [
                [diag[i] if i == j else (gr(rng.randint(0, 1)) if j == i + 1 else GR_ZERO) for j in range(dim)]
                for i in range(dim)
            ]
            s = random_unimodular_exact(dim, rng)
            m = s.inverse() @ Matrix(rows, EXACT) @ s
            decomp = generalized_eigenspaces(m)
            columns = []
            blocks = []
            for d in decomp:
                blocks.append((len(columns), d.dim))
                columns.extend(d.space_basis)
            e = Matrix.from_columns(columns, EXACT)
            e_inv = e.inverse()
            total = Matrix.zeros(dim, dim, EXACT)
            for start, width in blocks:
                diag_m = Matrix(
                    [
                        [
                            GR_ONE if (i == j and start <= i < start + width) else GR_ZERO
                            for j in range(dim)
                        ]
                        for i in range(dim)
                    ],
                    EXACT,
                )
                total = total + e @ diag_m @ e_inv
            assert total == Matrix.identity(dim, EXACT)


def test_rank_matches_oracle():
    m = exact_matrix([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert rank(m) == brute_row_reduce([[1, 2, 3], [2, 4, 6], [1, 0, 1]])


def test_mixed_backend_rejected():
    a = Matrix.identity(2, EXACT)
    b = Matrix.identity(2, APPROX)
    with pytest.raises(BackendMismatch):
        _ = a @ b


def seam_matrix(rows, backend):
    return Matrix([[coerce(x, backend) for x in row] for row in rows], backend)


TINY = Fraction(1, 10**12)  # far below eps = 1e-10 at unit scale


@pytest.mark.parametrize("backend", [EXACT, APPROX])
@pytest.mark.parametrize(
    "rows,exact_answer,approx_answer",
    [
        ([[1, 2], [3, 4]], True, True),
        ([[1, 2], [2, 4]], False, False),  # singular
        ([[1, 0], [0, TINY]], True, False),  # near-singular within tolerance
        ([[1, 0, 0], [0, 1, 0]], False, False),  # not square
    ],
)
def test_is_invertible(backend, rows, exact_answer, approx_answer):
    expected = exact_answer if backend == EXACT else approx_answer
    assert seam_matrix(rows, backend).is_invertible() is expected


@pytest.mark.parametrize("backend", [EXACT, APPROX])
@pytest.mark.parametrize("scale", [1, 100])
@pytest.mark.parametrize(
    "offset_in_thresholds,approx_answer",
    [(0, True), (Fraction(9, 10), True), (Fraction(11, 10), False)],
)
def test_agrees_with_ten_thresholds(backend, scale, offset_in_thresholds, approx_answer):
    # 10 * zero_threshold(scale) with eps = 1e-10
    offset = offset_in_thresholds * 10 * Fraction(1, 10**10) * scale
    a = seam_matrix([[scale, 1], [0, 1]], backend)
    b = seam_matrix([[scale, 1], [0, 1 + offset]], backend)
    expected = offset == 0 if backend == EXACT else approx_answer
    assert a.agrees_with(b) is expected
    assert b.agrees_with(a) is expected
