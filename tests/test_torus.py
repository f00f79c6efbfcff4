import cmath
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tracelab.cli import bundled_scenario_paths
from tracelab.errors import (
    FloatRangeExceeded,
    SchemaError,
    SizeLimit,
    TailBoundExceedsTolerance,
)
from tracelab.linalg import Matrix
from tracelab.reporting import load_scenario, run
from tracelab.spectral import spectrum
from tracelab.torus import (
    ALIAS_SHARE,
    MAX_TRUNCATION_TERMS,
    BumpTestFunction,
    GaussianTestFunction,
    TorusTwist,
    TruncationParams,
    _bump_derivative_polys,
    _geometric_tail_bound,
    _spectral_tail_bound,
    _unit_bump_mass,
    geometric_side_torus,
    laplacian_expected_spectrum,
    log_branch,
    quad,
    spectral_characters,
    spectral_side_torus,
    trivial_torus_twist,
    twisted_laplacian_model,
    verify_torus,
)

# frozen with the independent high-precision oracle below (mpmath, 50 digits):
#   sum over n of exp(-pi n^2)             -> CLASSICAL
#   sum over n of exp(-pi n^2) 2^n         -> SCALAR_TWO
CLASSICAL = 1.0864348112133080145753161215103
SCALAR_TWO = 1.1080496168687146178616656601862


def mpmath_oracle_classical(terms=40):
    import mpmath

    mpmath.mp.dps = 50
    return mpmath.nsum(lambda n: mpmath.exp(-mpmath.pi * n * n), [-terms, terms])


def mpmath_oracle_scalar_two(terms=40):
    import mpmath

    mpmath.mp.dps = 50
    return mpmath.nsum(
        lambda n: mpmath.exp(-mpmath.pi * n * n) * mpmath.mpf(2) ** n,
        [-terms, terms],
    )


def test_frozen_oracle_values_are_reproducible():
    assert abs(float(mpmath_oracle_classical()) - CLASSICAL) < 1e-15
    assert abs(float(mpmath_oracle_scalar_two()) - SCALAR_TWO) < 1e-15
    closed_form = math.pi ** 0.25 / math.gamma(0.75)
    assert abs(closed_form - CLASSICAL) < 1e-15


class TestBranch:
    def test_scalar_two(self):
        theta = log_branch(2.0)
        assert theta.real == 0.0
        assert abs(theta.imag + math.log(2) / (2 * math.pi)) < 1e-15
        assert abs(cmath.exp(2j * math.pi * theta) - 2.0) < 1e-14

    def test_branch_normalized(self):
        for a in (1j, -1.0, -2.0 + 1.0j, 0.5 - 0.25j):
            theta = log_branch(a)
            assert 0.0 <= theta.real < 1.0
            assert abs(cmath.exp(2j * math.pi * theta) - a) < 1e-12 * max(1, abs(a))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            log_branch(0.0)


class TestSpectralCharacters:
    def test_trivial_twist_fourier_basis(self):
        tw = trivial_torus_twist()
        family = list(itertools.islice(spectral_characters(tw), 5))
        assert [(round(f.real), m) for f, m in family] == [
            (0, 1),
            (1, 1),
            (-1, 1),
            (2, 1),
            (-2, 1),
        ]

    def test_scalar_two_offsets(self):
        tw = TorusTwist(((2.0, 1),))
        (first, m), *_ = list(itertools.islice(spectral_characters(tw), 1))
        assert m == 1
        assert abs(first - log_branch(2.0)) < 1e-15

    def test_jordan_multiplicity(self):
        tw = TorusTwist(((1.0, 2),))
        family = list(itertools.islice(spectral_characters(tw), 3))
        assert all(m == 2 for _, m in family)


class TestSides:
    def test_classical_value_on_both_sides(self):
        tw = trivial_torus_twist()
        f = GaussianTestFunction()
        params = TruncationParams(K=8, N=8)
        spectral, tail_s = spectral_side_torus(tw, f, params)
        geometric, tail_g = geometric_side_torus(tw, f, params)
        assert abs(spectral.real - CLASSICAL) < 1e-10
        assert abs(geometric.real - CLASSICAL) < 1e-10
        assert tail_s < 1e-20 and tail_g < 1e-20

    def test_jordan_doubles_classical(self):
        tw = TorusTwist(((1.0, 2),))
        f = GaussianTestFunction()
        params = TruncationParams(K=8, N=8)
        spectral, _ = spectral_side_torus(tw, f, params)
        geometric, _ = geometric_side_torus(tw, f, params)
        assert abs(spectral - 2 * CLASSICAL) < 1e-10
        assert abs(geometric - 2 * CLASSICAL) < 1e-10

    def test_scalar_two_cross_check(self):
        tw = TorusTwist(((2.0, 1),))
        f = GaussianTestFunction()
        params = TruncationParams(K=8, N=8)
        spectral, _ = spectral_side_torus(tw, f, params)
        geometric, _ = geometric_side_torus(tw, f, params)
        assert abs(spectral - geometric) < 1e-10
        assert abs(geometric.real - SCALAR_TWO) < 1e-10

    def test_geometric_series_terms(self):
        # n = 0, +-1, +-2 terms of the a=2 series, summed by hand
        tw = TorusTwist(((2.0, 1),))
        f = GaussianTestFunction()
        value, _ = geometric_side_torus(tw, f, TruncationParams(K=2, N=2))
        expected = 1.0 + 2.5 * math.exp(-math.pi) + 4.25 * math.exp(-4 * math.pi)
        assert abs(value.real - expected) < 1e-15

    def test_bump_only_origin_survives(self):
        tw = TorusTwist(((2.0, 1), (1.0, 2)))
        f = BumpTestFunction(radius=0.9)
        value, tail = geometric_side_torus(tw, f, TruncationParams(K=8, N=4))
        assert abs(value - f.value(0) * tw.dim) < 1e-15
        assert tail == 0.0

    def test_spectral_tail_cap(self):
        tw = trivial_torus_twist()
        f = GaussianTestFunction()
        params = TruncationParams(K=1, N=8, spectral_tail_cap=1e-30)
        with pytest.raises(TailBoundExceedsTolerance):
            spectral_side_torus(tw, f, params)


class TestVerify:
    def test_classical(self):
        v = verify_torus(
            trivial_torus_twist(), GaussianTestFunction(), TruncationParams(8, 8), 1e-12
        )
        assert v.passed and v.residual <= 1e-12

    def test_scalar_two(self):
        v = verify_torus(
            TorusTwist(((2.0, 1),)), GaussianTestFunction(), TruncationParams(8, 8), 1e-10
        )
        assert v.passed and v.residual <= 1e-10

    def test_jordan_unipotent(self):
        v = verify_torus(
            TorusTwist(((1.0, 2),)), GaussianTestFunction(), TruncationParams(8, 8), 1e-12
        )
        assert v.passed and v.residual <= 1e-12
        assert abs(v.spectral_value - 2 * CLASSICAL) < 1e-10

    def test_residual_within_tails_for_small_cutoffs(self):
        # truncation error is real but certified: the tails cover it
        v = verify_torus(
            TorusTwist(((2.0, 1),)),
            GaussianTestFunction(),
            TruncationParams(K=1, N=4),
            1e-12,
        )
        assert v.residual > 1e-12  # genuinely truncated
        assert v.passed  # but the certificate covers it

    def test_bump_anchor_run(self):
        v = verify_torus(
            TorusTwist(((1.0, 2),)),
            BumpTestFunction(radius=1.75),
            TruncationParams(K=32, N=8),
            1e-10,
        )
        assert v.passed
        assert v.residual <= 1e-10 + v.tail_spectral + v.tail_geometric

    def test_an_unknown_kind_is_not_a_float_range_error(self):
        # a caller's own test function keeps its error's type and message
        custom = GaussianTestFunction(kind="custom")
        with pytest.raises(ValueError, match="^unknown test function kind 'custom'$"):
            verify_torus(trivial_torus_twist(), custom, TruncationParams(2, 2))

    def test_a_callers_value_error_keeps_its_type(self):
        class Broken(GaussianTestFunction):
            def value(self, x):
                raise ValueError("broken test function")

        with pytest.raises(ValueError, match="^broken test function$"):
            verify_torus(trivial_torus_twist(), Broken(), TruncationParams(2, 2))

    def test_a_domain_error_is_a_float_range_error(self):
        class Domain(GaussianTestFunction):
            def value(self, x):
                return math.log(-1.0)

        with pytest.raises(FloatRangeExceeded, match="^geometric side: .*math domain error"):
            verify_torus(trivial_torus_twist(), Domain(), TruncationParams(2, 2))


class TestInvariants:
    def test_multiplicity_linearity(self):
        f = GaussianTestFunction()
        params = TruncationParams(8, 8)
        a = TorusTwist(((2.0, 1),))
        b = TorusTwist(((1.0, 2),))
        both = a.direct_sum(b)
        for side in (spectral_side_torus, geometric_side_torus):
            va, _ = side(a, f, params)
            vb, _ = side(b, f, params)
            vab, _ = side(both, f, params)
            assert abs(vab - va - vb) < 1e-12

    def test_branch_shift_invariance(self):
        # shifting theta by an integer re-indexes the character family;
        # compare at a window enlarged by the shift margin
        tw = TorusTwist(((2.0, 1),))
        f = GaussianTestFunction()
        theta = log_branch(2.0)
        for shift in (1, 2):
            inner, _ = spectral_side_torus(tw, f, TruncationParams(K=8, N=8))
            shifted = sum(
                f.transform(theta + shift + k) for k in range(-8 - shift, 8 - shift + 1)
            )
            assert abs(shifted - inner) < 1e-12

    def test_truncation_monotonicity_grid(self):
        tw = TorusTwist(((2.0, 1),))
        f = GaussianTestFunction()
        residuals = []
        for cut in range(0, 4):
            v = verify_torus(tw, f, TruncationParams(cut, cut), 1e-12)
            residuals.append(v.residual)
        for a, b in zip(residuals, residuals[1:]):
            assert b <= a * (1 + 1e-6) + 1e-15  # up to round-off floor

    def test_growth_dominance_certified(self):
        # steep growth still certified: the bound extends past the cutoff
        tw = TorusTwist(((40.0, 1),))
        f = GaussianTestFunction()
        value, tail = geometric_side_torus(tw, f, TruncationParams(K=2, N=2))
        direct = sum(f.value(n) * 40.0**n for n in range(-30, 31))
        assert abs(value - direct) <= tail + 1e-9


class TestLaplacianModel:
    def test_trivial_twist_k2_closed_form(self):
        tw = trivial_torus_twist()
        m = twisted_laplacian_model(tw, 2)
        values = sorted(
            (lam.real for lam, d in spectrum(m) for _ in range(d.dim))
        )
        pi2 = (2 * math.pi) ** 2
        expected = sorted([0.0, pi2, pi2, 4 * pi2, 4 * pi2])
        assert np.allclose(values, expected, atol=1e-9)

    def test_scalar_two_k1_complex_eigenvalues(self):
        tw = TorusTwist(((2.0, 1),))
        m = twisted_laplacian_model(tw, 1)
        got = {(round(l.real, 6), round(l.imag, 6)) for l, _ in spectrum(m)}
        theta = log_branch(2.0)
        expected = {
            (
                round(((2 * math.pi * (theta + k)) ** 2).real, 6),
                round(((2 * math.pi * (theta + k)) ** 2).imag, 6),
            )
            for k in (-1, 0, 1)
        }
        assert got == expected

    def test_jordan_unipotent_k0_multiplicity_two(self):
        # the operator block at frequency zero is -(M^2) = 0 for a size-2
        # unipotent block, so the generalized eigenvalue 0 has multiplicity
        # 2 with nilpotency index 1 (the constructed-matrix oracle)
        tw = TorusTwist(((1.0, 2),))
        m = twisted_laplacian_model(tw, 0)
        ((lam, data),) = spectrum(m)
        assert abs(lam) < 1e-12
        assert data.dim == 2
        assert data.index == 1
        assert data.block_sizes == (1, 1)

    def test_jordan_blocks_at_nonzero_frequency(self):
        tw = TorusTwist(((1.0, 2),))
        m = twisted_laplacian_model(tw, 1)
        by_value = {round(l.real, 6): d for l, d in spectrum(m)}
        pi2 = (2 * math.pi) ** 2
        assert by_value[round(pi2, 6)].block_sizes == (2, 2)  # k = +-1 collide
        assert by_value[0.0].dim == 2

    def test_translation_generators_commute_with_construction(self):
        tw = TorusTwist(((2.0, 1), (1.0, 2)))
        m = twisted_laplacian_model(tw, 2)
        g1, g_half = m.generators
        prod = g_half @ g_half
        assert np.allclose(prod.to_numpy(), g1.to_numpy(), atol=1e-12)

    def test_size_limit(self):
        tw = trivial_torus_twist(dim=3)
        with pytest.raises(SizeLimit):
            twisted_laplacian_model(tw, 400)

    def test_expected_spectrum_merges_collisions(self):
        tw = trivial_torus_twist()
        expected = laplacian_expected_spectrum(tw, 2)
        mult = {round(l.real, 6): m for l, m in expected}
        assert mult[round((2 * math.pi) ** 2, 6)] == 2


# -- the bump: exact derivative masses and the certified trapezoid rule ---------


def sympy_bump_numerator(order):
    """P_p from sympy: the p-th derivative of the unit bump over the bump,
    times (1 - u^2)^(2p), as integer coefficients, highest power first."""
    import sympy

    u = sympy.symbols("u")
    profile = sympy.exp(-1 / (1 - u**2))
    ratio = sympy.diff(profile, u, order) / profile * (1 - u**2) ** (2 * order)
    return [int(c) for c in sympy.Poly(sympy.cancel(ratio), u).all_coeffs()]


def mpmath_unit_mass(order):
    """Total variation of the unit bump's (order-1)-th derivative, 40 digits:
    zeros of sympy's numerator by mpmath, values of sympy's derivative."""
    import mpmath
    import sympy

    mpmath.mp.dps = 40
    u = sympy.symbols("u")
    g = sympy.lambdify(u, sympy.diff(sympy.exp(-1 / (1 - u**2)), u, order - 1), "mpmath")
    roots = mpmath.polyroots(sympy_bump_numerator(order), maxsteps=400, extraprec=400)
    zeros = sorted(
        mpmath.re(z) for z in roots if abs(mpmath.im(z)) < 1e-25 and -1 < mpmath.re(z) < 1
    )
    values = [0] + [g(z) for z in zeros] + [0]
    return sum(abs(b - a) for a, b in zip(values, values[1:]))


def mpmath_bump_transform(radius, xi):
    """F(xi) = integral of exp(-1/(1-(x/radius)^2)) exp(2 pi i xi x), 30 digits."""
    import mpmath

    mpmath.mp.dps = 30
    z = mpmath.mpc(xi.real, xi.imag)

    def integrand(x):
        return mpmath.exp(-1 / (1 - (x / radius) ** 2) + 2j * mpmath.pi * z * x)

    return complex(mpmath.quad(integrand, mpmath.linspace(-radius, radius, 41)))


class TestBumpMasses:
    def test_polynomials_match_sympy(self):
        polys = _bump_derivative_polys(6)
        assert polys[:2] == [[1], [-2, 0]]
        for order in range(7):
            assert polys[order] == sympy_bump_numerator(order), order

    @pytest.mark.parametrize("order", range(1, 7))
    def test_unit_mass_is_a_tight_upper_bound(self, order):
        reference = float(mpmath_unit_mass(order))
        mass = _unit_bump_mass(order)
        assert mass >= reference
        assert mass <= reference * (1 + 1e-12)


class TestBumpTransform:
    @pytest.mark.parametrize(
        "eigenvalue, budget", [(1.0, 1e-9), (2.0, 1e-9), (1e6, 1e-2)]
    )
    def test_within_its_bound_of_mpmath(self, eigenvalue, budget):
        # real frequencies for eigenvalue 1, complex ones otherwise
        f = BumpTestFunction(radius=1.75)
        theta = log_branch(eigenvalue)
        for k in (-3, 0, 5):
            xi = theta + k
            value, bound = quad(f, [xi], [1.0], budget)
            assert abs(value - mpmath_bump_transform(1.75, xi)) <= bound
            assert bound <= 1.01 * budget  # the aliasing budget and a little rounding

    @pytest.mark.parametrize("xi", [0.3, 4.0])  # at 4.0, |Re xi| <= 1/(2h) sets h
    def test_a_coarse_grid_errs_within_its_aliasing_bound(self, xi):
        f = BumpTestFunction(radius=1.75)
        value, bound = quad(f, [xi], [1.0], 1e-2)
        error = abs(value - mpmath_bump_transform(1.75, xi))
        assert 1e-9 < error <= bound

    def test_weights_sum_the_frequencies(self):
        f = BumpTestFunction(radius=1.0)
        xis = [0.1 + 0.05j, 1.1 + 0.05j, -0.9 + 0.05j]
        total, bound = quad(f, xis, [2.0, 1.0, 3.0], 1e-9)
        parts = [quad(f, [xi], [1.0], 1e-9)[0] for xi in xis]
        assert abs(total - (2 * parts[0] + parts[1] + 3 * parts[2])) <= 2 * bound

    def test_aliasing_is_a_share_of_the_truncation_tail(self):
        tw = TorusTwist(((2.0, 1), (1.0, 2)))
        f = BumpTestFunction(radius=1.75)
        truncation = _spectral_tail_bound(tw, f, 32)
        _, tail = spectral_side_torus(tw, f, TruncationParams(K=32, N=8))
        assert truncation < tail <= truncation * (1 + 1.01 * ALIAS_SHARE)

    def test_an_oversized_grid_is_a_size_limit(self):
        with pytest.raises(SizeLimit, match="trapezoid grid"):
            spectral_side_torus(
                trivial_torus_twist(), BumpTestFunction(radius=1.75), TruncationParams(K=5000)
            )

    def test_bundled_torus_runs_raise_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for path in bundled_scenario_paths():
                if path.name.startswith("torus-"):
                    assert run(load_scenario(path)).passed, path.name


class TestGaussianGeometricTail:
    @settings(max_examples=80, deadline=None)
    @given(
        base=st.floats(min_value=1.0, max_value=3.0),
        width=st.floats(min_value=0.3, max_value=20.0),
        center=st.floats(min_value=-3.0, max_value=3.0),
        big_n=st.integers(min_value=0, max_value=40),
        dim=st.integers(min_value=1, max_value=2),
    )
    @example(base=1.1, width=20.0, center=0.0, big_n=10, dim=1)  # mode < N + 1 < n_star
    @example(base=3.0, width=20.0, center=-3.0, big_n=0, dim=2)  # N + 1 < mode
    @example(base=2.0, width=1.90625, center=0.0, big_n=28, dim=1)  # f(29) is subnormal
    def test_bounds_the_brute_force_sum(self, base, width, center, big_n, dim):
        import mpmath

        tw = TorusTwist(((base, dim),))
        f = GaussianTestFunction(width=width, center=center)
        # past max(mode, N) + 12 width the terms fall by exp(-144 pi)
        mode = width * width * math.log(base) / (2 * math.pi) + abs(center)
        stop = big_n + 2 + math.ceil(mode + 12 * width)
        # summed at 50 digits: a term near 1e-308 is subnormal in double
        # precision and keeps too few digits for the 1e-12 margin
        with mpmath.workdps(50):

            def term(x):
                return mpmath.exp(-mpmath.pi * ((x - mpmath.mpf(center)) / width) ** 2)

            brute = float(
                mpmath.fsum(
                    dim * mpmath.mpf(base) ** n * (term(n) + term(-n))
                    for n in range(big_n + 1, stop)
                )
            )
        assert _geometric_tail_bound(tw, f, big_n) >= brute * (1 - 1e-12)

    def test_slow_growth_under_a_wide_gaussian_is_bounded(self):
        # the ratio test applies only from n ~ 9.9e5 on
        tw = TorusTwist(((1.001, 1),))
        f = GaussianTestFunction(width=3000.0)
        value, tail = geometric_side_torus(tw, f, TruncationParams(K=8, N=8))
        total = math.fsum(f.value(n) * 1.001**n for n in range(-40000, 40001))
        assert abs(total - value) <= tail < 2 * total


def test_trace_power_reuses_the_merged_jordan_data(monkeypatch):
    tw = TorusTwist(((2.0, 1), (2.0, 1), (1j, 2)))
    expected = [sum(m * a**n for a, m in tw.jordan_data()) for n in range(-9, 10)]
    monkeypatch.setattr(TorusTwist, "jordan_data", None)  # any call now fails
    assert [tw.trace_power(n) for n in range(-9, 10)] == expected
    geometric_side_torus(tw, GaussianTestFunction(), TruncationParams(K=2, N=30))


class TestTruncationSizeLimit:
    # two character frequencies: (2K + 1) * 2 terms on the spectral side
    TWIST = TorusTwist(((2.0, 1), (1.0, 1)))

    def forbid_sums(self, monkeypatch):
        def forbidden(*_args):
            raise AssertionError("summed a term past the size limit")

        monkeypatch.setattr(GaussianTestFunction, "transform", forbidden)
        monkeypatch.setattr(GaussianTestFunction, "value", forbidden)
        monkeypatch.setattr(TorusTwist, "trace_power", forbidden)

    def test_spectral_side(self, monkeypatch):
        big_k = MAX_TRUNCATION_TERMS // 4  # 2 * (2K + 1) = MAX + 2 terms
        self.forbid_sums(monkeypatch)
        with pytest.raises(SizeLimit, match=f"spectral side at K = {big_k}: "):
            spectral_side_torus(self.TWIST, GaussianTestFunction(), TruncationParams(K=big_k))

    def test_geometric_side(self, monkeypatch):
        big_n = MAX_TRUNCATION_TERMS // 2  # 2N + 1 = MAX + 1 terms
        self.forbid_sums(monkeypatch)
        with pytest.raises(SizeLimit, match=f"geometric side at N = {big_n}: "):
            geometric_side_torus(trivial_torus_twist(), GaussianTestFunction(), TruncationParams(N=big_n))

    def test_at_the_limit_both_sides_sum(self):
        f = GaussianTestFunction()
        spectral_side_torus(self.TWIST, f, TruncationParams(K=MAX_TRUNCATION_TERMS // 4 - 1))
        geometric_side_torus(trivial_torus_twist(), f, TruncationParams(N=MAX_TRUNCATION_TERMS // 2 - 1))

