import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    exact_matrix,
    gr,
    random_defective_approx_delta,
    random_exact_model,
    random_unimodular_exact,
)
from tracelab.errors import (
    BackendMismatch,
    BadLambda,
    IrreducibilityUndecided,
    NonIrreduciblePi,
    NotStable,
    SigmaNotSpectral,
)
from tracelab.linalg import Matrix, nullspace, span_of
from tracelab.scalars import APPROX, DEFAULT_CONTEXT, EXACT
from tracelab.spectral import (
    _random_unimodular,
    canonical_key,
    composition_series,
    composition_series_data,
    find_proper_submodule,
    is_isomorphic,
    minimal_submodule,
    model,
    multiplicity,
    multiplicity_table,
    pi_class,
    quotient_model,
    random_pi_filtration_length,
    restrict_model,
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


class TestLateSearchStages:
    def test_each_tier_is_probed_once_and_the_backstop_runs_once(self, monkeypatch):
        # g = delta = [[0, 2], [1, 0]] has eigenvalues +-sqrt(2), outside Q(i):
        # no cheap probe is conclusive, so with the backstop undecided the
        # search walks every stage: short tier, backstop, extended tier,
        # short tier with complete spectra
        from tracelab import spectral

        g = exact_matrix([[0, 2], [1, 0]])
        m = model([g], g)
        calls = Counter()
        probe = spectral._eigen_pairs_for_probe

        def undecided_backstop(_m):
            calls["backstop"] += 1
            return spectral.UNDECIDED

        def counted_probe(t, ctx, thorough=False):
            calls["complete" if thorough else "cheap"] += 1
            return probe(t, ctx, thorough)

        monkeypatch.setattr(spectral, "_structural_backstop", undecided_backstop)
        monkeypatch.setattr(spectral, "_eigen_pairs_for_probe", counted_probe)
        with pytest.raises(IrreducibilityUndecided):
            find_proper_submodule(m)
        # cheap: delta, g, g + g^-1, then delta g; complete: the short tier
        assert calls == {"backstop": 1, "cheap": 4, "complete": 3}

    def test_a_simple_eigenvalue_is_worked_on_once(self, monkeypatch):
        # the swap and the sign flip generate the dihedral group of order 8,
        # simple in dimension 2; delta, their product, is the quarter turn
        # with the simple eigenvalues +-i, and Norton's test at i certifies
        # at the first probe
        from tracelab import linalg, spectral

        swap = exact_matrix([[0, 1], [1, 0]])
        flip = exact_matrix([[1, 0], [0, -1]])
        turn = swap @ flip
        m = model([swap, flip], turn)
        kernels = Counter()
        chains = []
        original = linalg.nullspace

        def counted_nullspace(mat, ctx=DEFAULT_CONTEXT):
            kernels[mat] += 1
            return original(mat, ctx)

        def counted_chain(*args, **kwargs):
            chains.append(args)
            return linalg.generalized_eigenspace(*args, **kwargs)

        monkeypatch.setattr(linalg, "nullspace", counted_nullspace)
        monkeypatch.setattr(spectral, "nullspace", counted_nullspace)
        monkeypatch.setattr(spectral, "generalized_eigenspace", counted_chain)
        assert find_proper_submodule(m) is None
        assert chains == []
        i = Matrix.identity(2, EXACT).scale(gr(0, 1))
        # one kernel at each eigenvalue, then the transposed one at i
        assert kernels == {turn - i: 1, turn + i: 1, turn.transpose() - i: 1}

    @pytest.mark.parametrize("other,classes", [([[0, 2], [1, 0]], 1), ([[0, 3], [1, 0]], 2)])
    def test_the_backstop_splits_along_a_commutant_element(self, monkeypatch, other, classes):
        # S = Q(i)^2 under [[0, 2], [1, 0]] (eigenvalues +-sqrt(2)) and S'
        # under [[0, 3], [1, 0]] (+-sqrt(3)) leave every probe undecided, and
        # S + S and S + S' have a radical-free algebra: only the commutant
        # splits them, through the kernel of p(c)
        from tracelab import spectral

        g = exact_matrix([[0, 2], [1, 0]])
        gen = Matrix.block_diag([g, exact_matrix(other)])
        m = model([gen], gen + gen.inverse())
        data = composition_series_data(m)
        assert [f.dim for f in data.factors] == [2, 2]
        assert len(data.classes) == classes

        evaluated = []
        verdicts = []
        poly_eval = spectral._poly_eval
        backstop = spectral._structural_backstop
        monkeypatch.setattr(
            spectral, "_poly_eval", lambda coeffs, mat: evaluated.append(coeffs) or poly_eval(coeffs, mat)
        )
        monkeypatch.setattr(
            spectral, "_structural_backstop", lambda mm: verdicts.append(backstop(mm)) or verdicts[-1]
        )
        witness = find_proper_submodule(m)
        assert len(witness) == 2 and len(evaluated) == 1
        assert verdicts == [witness]


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

    @settings(max_examples=40, deadline=None)
    @given(dim=st.integers(1, 6), seed=st.integers(0, 2**32))
    def test_exact_conjugator_comes_with_its_inverse(self, dim, seed):
        s, s_inv = _random_unimodular(dim, EXACT, random.Random(seed), DEFAULT_CONTEXT)
        assert s @ s_inv == Matrix.identity(dim, EXACT)

    def test_exact_search_forms_no_inverse(self, monkeypatch):
        j = exact_matrix([[1, 1, 0], [0, 1, 0], [0, 0, 2]])
        m = model([j], j + j.inverse())
        one = pi_class(model([exact_matrix([[1]])], exact_matrix([[2]])))

        def forbidden(*_args, **_kwargs):
            raise AssertionError("the exact filtration search formed an inverse")

        monkeypatch.setattr(Matrix, "inverse", forbidden)
        res = random_pi_filtration_length(m, one, trials=5, seed=1)
        assert res.length == 2 and res.certified


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

    @pytest.mark.parametrize("backend", [EXACT, APPROX])
    def test_full_space_given_by_a_skew_basis(self, backend):
        # V0 is read in the basis the V1 model is written in; a full V1 keeps
        # the ambient coordinates whatever basis it is given by
        delta = Matrix([[gr(0), gr(1), gr(0)], [gr(0), gr(0), gr(0)], [gr(0), gr(0), gr(5)]], EXACT)
        m = trivial_action(delta if backend == EXACT else delta.to_approx())
        v1 = [(gr(1), gr(1), gr(0)), (gr(1), gr(-1), gr(0)), (gr(0), gr(0), gr(1))]
        v0 = [(gr(1), gr(0), gr(0))]
        if backend == APPROX:
            v1, v0 = ([tuple(x.to_complex() for x in v) for v in vs] for vs in (v1, v0))
        report = subquotient_spectrum_check(m, v0, v1)
        assert report.passed
        assert [(r.dim_large, r.dim_small, r.dim_quotient) for r in report.rows] == [(2, 1, 1), (1, 0, 1)]


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


def _unit(n, i):
    return tuple(gr(1) if k == i else gr(0) for k in range(n))


@st.composite
def models_with_invariant_subspace(draw):
    """(model, vectors): an exact model and a non-echelon basis of a proper
    invariant subspace, hidden by a unimodular change of basis."""
    n = draw(st.integers(2, 5))
    d = draw(st.integers(1, n - 1))
    entries = st.sampled_from([gr(0), gr(0), gr(1), gr(-1), gr(0, 1), gr(1, -1), gr(2)])
    gens = []
    for _ in range(draw(st.integers(1, 2))):
        # block upper-triangular: zero below the (d, n - d) split
        grid = [
            [gr(0) if i >= d and j < d else draw(entries) for j in range(n)]
            for i in range(n)
        ]
        gens.append(Matrix(grid, EXACT))
    assume(all(g.is_invertible() for g in gens))
    s = random_unimodular_exact(n, random.Random(draw(st.integers(0, 2**32))))
    s_inv = s.inverse()
    gens = [s @ g @ s_inv for g in gens]
    delta = gens[0] + gens[-1]
    return model(gens, delta), s.columns()[:d]


def _old_blocks(m, vectors):
    """Diagonal blocks of P^-1 X P for P = [B | e_F], by an explicit inverse."""
    n = m.dim
    b = span_of(vectors, n, EXACT).basis()
    pivots = [next(i for i, x in enumerate(v) if x) for v in b]
    free = [i for i in range(n) if i not in pivots]
    p = Matrix.from_columns(b + [_unit(n, i) for i in free], EXACT)
    p_inv = p.inverse()
    d = len(b)
    out = []
    for x in m.generators + (m.delta,):
        t = p_inv @ x @ p
        assert t.lower_blocks_negligible((0, d, n), 1)
        out.append((t.diagonal_block(0, d), t.diagonal_block(d, n)))
    return out, free


def _one_shot_factors(m):
    """The series loop that quotients ``m`` by the whole flag at every step."""
    vectors = []
    factors = []
    while len(vectors) < m.dim:
        quotient, lift = quotient_model(m, vectors) if vectors else (m, lambda v: v)
        sub, _ = minimal_submodule(quotient)
        factors.append(restrict_model(quotient, sub))
        vectors.extend(lift(u) for u in sub)
    return factors


class TestEchelonTransport:
    """Exact restriction and quotient are read off the echelon basis of the
    subspace; the oracle forms the change of basis and its inverse."""

    @settings(max_examples=40, deadline=None)
    @given(case=models_with_invariant_subspace())
    def test_blocks_match_the_change_of_basis(self, case):
        m, vectors = case
        sub = restrict_model(m, vectors)
        quo, lift = quotient_model(m, vectors)
        blocks, free = _old_blocks(m, vectors)
        assert blocks == list(
            zip(sub.generators + (sub.delta,), quo.generators + (quo.delta,))
        )
        for j, i in enumerate(free):
            assert lift(_unit(len(free), j)) == _unit(m.dim, i)

    @settings(max_examples=40, deadline=None)
    @given(case=models_with_invariant_subspace(), data=st.data())
    def test_non_invariant_subspace_raises(self, case, data):
        m, _ = case
        n = m.dim
        coeffs = st.sampled_from([gr(0), gr(1), gr(-1), gr(0, 1), gr(2)])
        k = data.draw(st.integers(1, n - 1))
        vectors = [tuple(data.draw(coeffs) for _ in range(n)) for _ in range(k)]
        span_dim = span_of(vectors, n, EXACT).dim
        assume(0 < span_dim < spin(vectors, m.generators, n, EXACT).dim)
        with pytest.raises(NotStable):
            restrict_model(m, vectors)
        with pytest.raises(NotStable):
            quotient_model(m, vectors)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32))
    def test_successive_quotients_match_one_shot(self, seed):
        m, *_ = random_exact_model(random.Random(seed), max_dim=6)
        successive = composition_series_data(m).factors
        one_shot = _one_shot_factors(m)

        def content(factors):
            return Counter((f.dim, canonical_key(f)) for f in factors)

        assert content(successive) == content(one_shot)

    def test_exact_transport_forms_no_inverse_or_determinant(self, monkeypatch):
        m, *_ = random_exact_model(random.Random(7), max_dim=6)
        vectors = find_proper_submodule(m)
        assert 0 < len(vectors) < m.dim

        def forbidden(*_args, **_kwargs):
            raise AssertionError("exact transport formed an inverse or a determinant")

        monkeypatch.setattr(Matrix, "inverse", forbidden)
        monkeypatch.setattr(Matrix, "det", forbidden)
        sub = restrict_model(m, vectors)
        quo, _ = quotient_model(m, vectors)
        assert sub.dim + quo.dim == m.dim

    @pytest.mark.parametrize("backend", [EXACT, APPROX])
    def test_zero_and_full_subspaces(self, backend):
        j = exact_matrix([[1, 1, 0], [0, 1, 0], [0, 0, 2]])
        j = j if backend == EXACT else j.to_approx()
        m = model([j], j + j.inverse())
        full = Matrix.identity(3, backend).columns()
        assert restrict_model(m, []).dim == 0
        assert quotient_model(m, [])[0].generators[0].agrees_with(j)
        assert restrict_model(m, full).generators[0].agrees_with(j)
        assert quotient_model(m, full)[0].dim == 0
        assert subquotient_spectrum_check(m, [], []).rows == ()


class TestMinimalSubmodule:
    def test_non_echelon_witness_is_composed_in_the_restriction_basis(self, monkeypatch):
        # the kernel of [1 1 1] as nullspace returns it, (-1,1,0), (-1,0,1),
        # is not echelon; the restriction to it is written in (1,0,-1),
        # (0,1,-1).  Its eigenlines (1,-1,0) and (1,1,-2) are read in those
        # coordinates, and read in the witness's own they are not invariant.
        from tracelab import spectral

        u = Matrix.from_columns(
            [(gr(1), gr(-1), gr(0)), (gr(1), gr(1), gr(-2)), (gr(1), gr(1), gr(1))], EXACT
        )
        g = u @ exact_matrix([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) @ u.inverse()
        m = model([g], g)
        witness = nullspace(exact_matrix([[1, 1, 1]]))
        assert witness == [(gr(-1), gr(1), gr(0)), (gr(-1), gr(0), gr(1))]
        original = spectral.find_proper_submodule
        monkeypatch.setattr(
            spectral,
            "find_proper_submodule",
            lambda current: witness if current is m else original(current),
        )
        basis, factor = minimal_submodule(m)
        assert len(basis) == factor.dim == 1
        assert spin(basis, m.generators, 3, EXACT).dim == 1
