import random

import numpy as np
import pytest

from conftest import exact_matrix, gr, random_defective_approx_delta, random_exact_model
from tracelab.errors import (
    BackendMismatch,
    BadLambda,
    NonIrreduciblePi,
    NotStable,
    SigmaNotSpectral,
)
from tracelab.linalg import Matrix
from tracelab.scalars import APPROX, EXACT
from tracelab.spectral import (
    composition_series,
    composition_series_data,
    find_proper_submodule,
    is_isomorphic,
    model,
    multiplicity,
    multiplicity_table,
    pi_class,
    random_pi_filtration_length,
    spectral_projection_direct,
    spectral_projection_power_iteration,
    spectral_trace,
    spectrum,
    spin,
    split_basis,
    subquotient_spectrum_check,
)


def trivial_action(delta):
    return model([Matrix.identity(delta.rows, delta.backend)], delta)


class TestSpectrum:
    def test_two_simple_values(self):
        m = trivial_action(exact_matrix([[0, 0], [0, 1]]))
        decomp = spectrum(m)
        assert [(str(lam), d.dim) for lam, d in decomp] == [("0", 1), ("1", 1)]

    def test_jordan_plus_point(self):
        # delta = J2(4) + [9]: nilpotency-degree oracle via the kernel chain
        from tracelab.linalg import nullspace

        delta = exact_matrix([[4, 1, 0], [0, 4, 0], [0, 0, 9]])
        shift = delta - Matrix.identity(3, EXACT).scale(gr(4))
        assert len(nullspace(shift)) == 1
        assert len(nullspace(shift @ shift)) == 2
        assert len(nullspace(shift @ shift @ shift)) == 2  # stabilized at 2
        m = trivial_action(delta)
        decomp = dict((str(lam), d) for lam, d in spectrum(m))
        assert decomp["4"].block_sizes == (2,)
        assert decomp["9"].block_sizes == (1,)

    def test_zero_on_dim_three(self):
        m = trivial_action(Matrix.zeros(3, 3, EXACT))
        ((lam, data),) = spectrum(m)
        assert str(lam) == "0" and data.dim == 3


class TestDirectProjection:
    def test_diagonal(self):
        m = trivial_action(exact_matrix([[0, 0], [0, 5]]))
        p = spectral_projection_direct(m, gr(0))
        assert p == exact_matrix([[1, 0], [0, 0]])

    def test_jordan_plus_point(self):
        delta = exact_matrix([[1, 1, 0], [0, 1, 0], [0, 0, 2]])
        m = trivial_action(delta)
        p = spectral_projection_direct(m, gr(1))
        assert p == exact_matrix([[1, 0, 0], [0, 1, 0], [0, 0, 0]])
        assert p @ p == p
        assert p @ delta == delta @ p

    def test_identity_case(self):
        m = trivial_action(exact_matrix([[7]]))
        assert spectral_projection_direct(m, gr(7)) == Matrix.identity(1, EXACT)

    def test_not_spectral(self):
        m = trivial_action(exact_matrix([[7]]))
        with pytest.raises(SigmaNotSpectral):
            spectral_projection_direct(m, gr(6))


class TestPowerIterationProjection:
    def test_diagonal_closed_form(self):
        # T = diag(1, 1/6): closed-form powers converge to diag(1, 0)
        delta = Matrix([[0j, 0j], [0j, 5 + 0j]], APPROX)
        m = trivial_action(delta)
        p = spectral_projection_power_iteration(m, 0, -1)
        expected = np.diag([1.0, 0.0]).astype(complex)
        assert np.max(np.abs(p.to_numpy() - expected)) < 1e-10

    def test_single_block_gives_identity(self):
        # whole space is one generalized eigenspace: projector is identity
        delta = Matrix([[0j, 1 + 0j], [0j, 0j]], APPROX)
        m = trivial_action(delta)
        p = spectral_projection_power_iteration(m, 0, -0.1)
        assert np.max(np.abs(p.to_numpy() - np.eye(2))) < 1e-10

    def test_block_plus_point_matches_direct(self):
        delta = Matrix([[0j, 1 + 0j, 0j], [0j, 0j, 0j], [0j, 0j, 3 + 0j]], APPROX)
        m = trivial_action(delta)
        p = spectral_projection_power_iteration(m, 0, -0.1)
        direct = spectral_projection_direct(m, 0)
        assert np.max(np.abs(p.to_numpy() - direct.to_numpy())) < 1e-10
        assert np.max(np.abs(p.to_numpy() - np.diag([1, 1, 0]))) < 1e-10

    def test_bad_lambda(self):
        delta = Matrix([[0j, 0j], [0j, 1 + 0j]], APPROX)
        m = trivial_action(delta)
        with pytest.raises(BadLambda):
            spectral_projection_power_iteration(m, 0, 0.6)  # closer to 1
        with pytest.raises(BadLambda):
            spectral_projection_power_iteration(m, 0, 0.5)  # equidistant

    def test_exact_backend_rejected(self):
        m = trivial_action(exact_matrix([[0, 0], [0, 5]]))
        with pytest.raises(BackendMismatch):
            spectral_projection_power_iteration(m, gr(0), gr(-1))


class TestCompositionSeries:
    def test_irreducible_model_is_one_step(self):
        rot = exact_matrix([[0, -1], [1, -1]])
        m = model([rot], rot + rot.inverse())
        filtration = composition_series(m)
        assert filtration.length == 1
        assert len(filtration.subspaces[0]) == 0
        assert len(filtration.subspaces[-1]) == 2

    def test_jordan_action_unique_line(self):
        # oracle: the only stable line of the unipotent 2x2 action is e1
        j = exact_matrix([[1, 1], [0, 1]])
        m = model([j], j + j.inverse())
        data = composition_series_data(m)
        assert data.length == 2
        first = data.filtration.subspaces[1]
        assert len(first) == 1
        v = first[0]
        assert v[1] == gr(0) and v[0] != gr(0)
        assert len(data.classes) == 1  # both quotients are the same character

    def test_two_characters_deterministic(self):
        chi = exact_matrix([[2, 0], [0, 3]])
        m = model([chi], chi)
        data1 = composition_series_data(m)
        data2 = composition_series_data(m)
        assert data1.filtration.subspaces == data2.filtration.subspaces
        assert [f.dim for f in data1.factors] == [1, 1]
        assert len(data1.classes) == 2

    def test_factors_certified(self):
        j = exact_matrix([[1, 1], [0, 1]])
        m = model([j], j + j.inverse())
        data = composition_series_data(m)
        for f in data.factors:
            assert find_proper_submodule(f) is None


class TestClassAssignment:
    def test_each_factor_key_is_computed_once(self, monkeypatch):
        # a model keeps its key, so the exact pre-filter does not recompute
        # both models' charpolys per comparison
        from tracelab import spectral

        keyed = []
        original = spectral._compute_canonical_key
        monkeypatch.setattr(
            spectral, "_compute_canonical_key", lambda m: keyed.append(m) or original(m)
        )
        j = exact_matrix([[1, 1], [0, 1]])
        chi = exact_matrix([[-1]])
        m = model(
            [Matrix.block_diag([j, chi])],
            Matrix.block_diag([j + j.inverse(), chi.scale(gr(-2))]),
        )
        data = composition_series_data(m)
        assert data.length == 3 and len(data.classes) == 2
        assert len(keyed) == data.length

    @pytest.mark.parametrize("seed", range(8))
    def test_classes_are_the_isomorphism_classes(self, seed):
        m, content, _, _ = random_exact_model(random.Random(seed), max_dim=6)
        data = composition_series_data(m)
        assert len(data.classes) == len(content)
        for i, a in enumerate(data.factors):
            for j, b in enumerate(data.factors):
                same = data.class_of_factor[i] == data.class_of_factor[j]
                assert same == is_isomorphic(a, b)
        for idx, cls in enumerate(data.classes):  # a class keeps its first factor
            assert cls.rep is data.factors[data.class_of_factor.index(idx)]


class TestMultiplicity:
    def test_model_is_its_own_class(self):
        rot = exact_matrix([[0, -1], [1, -1]])
        m = model([rot], rot + rot.inverse())
        pi = pi_class(m)
        assert multiplicity(m, pi) == 1

    def test_jordan_action_counts_two(self):
        j = exact_matrix([[1, 1], [0, 1]])
        m = model([j], j + j.inverse())
        one = pi_class(model([exact_matrix([[1]])], exact_matrix([[2]])))
        assert multiplicity(m, one) == 2

    def test_absent_factor_counts_zero(self):
        j = exact_matrix([[1, 1], [0, 1]])
        m = model([j], j + j.inverse())
        other = pi_class(model([exact_matrix([[-1]])], exact_matrix([[2]])))
        assert multiplicity(m, other) == 0

    def test_rejects_reducible_pi(self):
        j = exact_matrix([[1, 1], [0, 1]])
        m = model([j], j + j.inverse())
        with pytest.raises(NonIrreduciblePi):
            multiplicity(m, _fake_pi(m))  # bypasses certification on purpose

    def test_table_covers_dimension(self):
        j = exact_matrix([[1, 1], [0, 1]])
        chi = exact_matrix([[-1]])
        m = model(
            [Matrix.block_diag([j, chi])],
            Matrix.block_diag([j + j.inverse(), chi.scale(gr(-2))]),
        )
        table = multiplicity_table(m)
        assert sum(cls.dim * count for cls, count in table.entries) == 3


def _fake_pi(m):
    from tracelab.spectral import PiClass, canonical_key

    return PiClass(m, canonical_key(m))


class TestRandomFiltration:
    def test_irreducible_length_one(self):
        rot = exact_matrix([[0, -1], [1, -1]])
        m = model([rot], rot + rot.inverse())
        pi = pi_class(m)
        res = random_pi_filtration_length(m, pi, trials=3, seed=5)
        assert res.length == 1 and res.certified

    def test_jordan_reaches_two(self):
        j = exact_matrix([[1, 1], [0, 1]])
        m = model([j], j + j.inverse())
        one = pi_class(model([exact_matrix([[1]])], exact_matrix([[2]])))
        res = random_pi_filtration_length(m, one, trials=10, seed=1)
        assert res.length == 2 and res.certified

    def test_direct_sum_of_characters(self):
        chi = exact_matrix([[2, 0], [0, 3]])
        m = model([chi], chi)
        two = pi_class(model([exact_matrix([[2]])], exact_matrix([[2]])))
        res = random_pi_filtration_length(m, two, trials=5, seed=9)
        assert res.length == 1 and res.certified


class TestSpectralTrace:
    def test_identity_gives_dimension(self):
        j = exact_matrix([[1, 1], [0, 1]])
        m = model([j], j + j.inverse())
        assert str(spectral_trace(m, Matrix.identity(2, EXACT))) == "2"

    def test_generator_operator(self):
        j = exact_matrix([[1, 1], [0, 1]])
        m = model([j], j + j.inverse())
        assert str(spectral_trace(m, j)) == "2"

    def test_zero_operator(self):
        j = exact_matrix([[1, 1], [0, 1]])
        m = model([j], j + j.inverse())
        assert str(spectral_trace(m, Matrix.zeros(2, 2, EXACT))) == "0"

    def test_unstable_operator_rejected(self):
        j = exact_matrix([[1, 1], [0, 1]])
        m = model([j], j + j.inverse())
        bad = exact_matrix([[0, 0], [1, 0]])  # does not preserve the flag
        with pytest.raises(NotStable):
            spectral_trace(m, bad)

    def test_random_polynomial_operators(self):
        rng = random.Random(31)
        for trial in range(8):
            m, content, pool, n_gens = random_exact_model(rng, max_dim=8)
            op = Matrix.identity(m.dim, EXACT).scale(gr(rng.randint(-2, 2)))
            for g in m.generators:
                op = op @ g + Matrix.identity(m.dim, EXACT)
            value = spectral_trace(m, op)  # raises TraceMismatch on any bug
            assert value == op.trace()

    def test_approx_block_traces_are_python_complex(self):
        # three one-dimensional factors: the value is a sum of block traces
        g = Matrix([[2, 1, 0], [0, 3, 1], [0, 0, 5]], APPROX)
        m = model([g], g + g.inverse())
        value = spectral_trace(m, g)
        assert type(value) is complex and abs(value - 10) < 1e-9


class TestSubquotientSpectrum:
    def test_full_space(self):
        delta = exact_matrix([[0, 1], [0, 0]])
        m = trivial_action(delta)
        full = [(gr(1), gr(0)), (gr(0), gr(1))]
        report = subquotient_spectrum_check(m, [], full)
        assert report.passed

    def test_jordan_line(self):
        delta = exact_matrix([[0, 1], [0, 0]])
        m = trivial_action(delta)
        report = subquotient_spectrum_check(m, [], [(gr(1), gr(0))])
        assert report.passed
        (row,) = report.rows
        assert row.dim_large == 1 and row.dim_small == 0 and row.dim_quotient == 1

    def test_equal_spaces_empty_quotient(self):
        delta = exact_matrix([[0, 1], [0, 0]])
        m = trivial_action(delta)
        line = [(gr(1), gr(0))]
        report = subquotient_spectrum_check(m, line, line)
        assert report.passed
        assert all(r.dim_quotient == 0 for r in report.rows)

    def test_unstable_pair_rejected(self):
        j = exact_matrix([[1, 1], [0, 1]])
        m = model([j], j + j.inverse())
        with pytest.raises(NotStable):
            subquotient_spectrum_check(m, [], [(gr(0), gr(1))])


class TestIsomorphism:
    def test_conjugate_models_isomorphic(self):
        rng = random.Random(2)
        j = exact_matrix([[0, -1], [1, -1]])
        s = exact_matrix([[1, 2], [0, 1]])
        a = model([j], j + j.inverse())
        b = model([s.inverse() @ j @ s], s.inverse() @ (j + j.inverse()) @ s)
        assert is_isomorphic(a, b)

    def test_distinct_characters_not_isomorphic(self):
        a = model([exact_matrix([[2]])], exact_matrix([[1]]))
        b = model([exact_matrix([[3]])], exact_matrix([[1]]))
        assert not is_isomorphic(a, b)


class TestDeltaStabilityAcrossResolventSample:
    def test_flag_terms_stable_under_sampled_resolvents(self):
        # stability of composition subspaces under (delta - lambda)^{-1}
        # for every sampled resolvent point
        from tracelab.linalg import resolvent, span_of

        rng = random.Random(17)
        for _ in range(5):
            m, *_ = random_exact_model(rng, max_dim=6)
            data = composition_series_data(m)
            for basis in data.filtration.subspaces[1:-1]:
                space = span_of(list(basis), m.dim, EXACT)
                for lam in m.resolvent_sample:
                    r = resolvent(m.delta, lam)
                    for v in basis:
                        assert space.contains(r.apply(v))


class TestApproxSpinAgainstExact:
    """The exact backend is the oracle for the approx span built by ``spin``."""

    @pytest.mark.parametrize("seed", range(30))
    def test_spin_spans_agree(self, seed):
        rng = random.Random(seed)
        m, *_ = random_exact_model(rng, max_dim=8)
        n = m.dim
        unit = tuple(gr(1) if i == 0 else gr(0) for i in range(n))
        gaussian = tuple(gr(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(n - 1))
        gaussian = (gr(rng.randint(1, 3), rng.randint(-3, 3)),) + gaussian
        approx_gens = [g.to_approx() for g in m.generators]
        ctx = m.context
        for seed_vector in (unit, gaussian):
            exact = spin([seed_vector], m.generators, n, EXACT)
            approx = spin([tuple(x.to_complex() for x in seed_vector)], approx_gens, n, APPROX, ctx)
            assert approx.dim == exact.dim
            for v in exact.basis():
                assert approx.contains(tuple(x.to_complex() for x in v))
            p = split_basis(approx.basis(), n, APPROX, ctx).p.to_numpy()
            defect = np.linalg.norm(p.conj().T @ p - np.eye(n))
            assert defect <= 10 * ctx.zero_threshold(1)
