import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy.combinatorics import Permutation

from tracelab.errors import IllFormedCosetAction, NotInSubgroup
from tracelab.groups import (
    FiniteGroup,
    FreeAbelianGroup,
    FreeGroup,
    KernelSubgroup,
    alternating_group,
    cyclic_group,
    cyclically_equal,
    dihedral_group,
    finite_subgroup,
    lattice_subgroup,
    perm_compose,
    perm_inverse,
    primitive_root,
    quaternion_group,
    reduce_word,
    symmetric_group,
    word_inverse,
    word_multiply,
)


class TestFiniteGroups:
    def test_orders(self):
        assert len(symmetric_group(3)) == 6
        assert len(symmetric_group(4)) == 24
        assert len(cyclic_group(6)) == 6
        assert len(dihedral_group(4)) == 8
        assert len(quaternion_group()) == 8
        assert len(alternating_group(4)) == 12

    def test_group_axioms_spot_check(self):
        g = symmetric_group(3)
        for a in g.elements:
            assert perm_compose(a, perm_inverse(a)) == g.identity()
            for b in g.elements:
                assert perm_compose(a, b) in g

    def test_conjugacy_classes_of_s3(self):
        g = symmetric_group(3)
        sizes = sorted(len(g.conjugacy_class(x)) for x in g.elements)
        # identity, three transpositions (one class of 3), two 3-cycles
        assert sizes == [1, 2, 2, 3, 3, 3]

    def test_centralizer(self):
        g = symmetric_group(3)
        swap = (1, 0, 2)
        cent = g.centralizer(swap)
        assert len(cent) == 2
        assert g.identity() in cent and swap in cent


class TestSubgroups:
    def test_a3_in_s3(self):
        g = symmetric_group(3)
        sub = finite_subgroup(g, [(1, 2, 0)])
        assert sub.index == 2
        assert len(sub.members) == 3
        # cosets form a transitive action
        j, gamma = sub.coset_action((1, 0, 2), 0)
        assert j == 1 and gamma == g.identity()

    def test_coset_cocycle_identity(self):
        # rep_i * g = gamma * rep_j exactly
        g = symmetric_group(4)
        sub = finite_subgroup(g, [(1, 2, 3, 0), (0, 3, 2, 1)])  # dihedral
        assert sub.index == 3
        for element in g.generators:
            for i in range(sub.index):
                j, gamma = sub.coset_action(element, i)
                left = g.multiply(sub.coset_reps[i], element)
                right = g.multiply(gamma, sub.coset_reps[j])
                assert left == right
                assert sub.contains(gamma)

    def test_lattice_subgroup(self):
        z2 = FreeAbelianGroup(2)
        sub = lattice_subgroup(z2, [[2, 0], [0, 2]])
        assert sub.index == 4
        assert sub.contains((2, 0)) and sub.contains((-2, 2))
        assert not sub.contains((1, 0))

    def test_lattice_index_from_determinant(self):
        z2 = FreeAbelianGroup(2)
        sub = lattice_subgroup(z2, [[1, 1], [0, 3]])
        assert sub.index == 3


class TestWords:
    def test_reduction_idempotent(self):
        w = reduce_word([1, 2, -2, -1, 1, 1, -1])
        assert w == (1,)
        assert reduce_word(w) == w

    def test_inverse_and_multiply(self):
        a = (1, 2)
        assert word_multiply(a, word_inverse(a)) == ()
        assert word_multiply((1,), (-1, 2)) == (2,)

    def test_cyclic_conjugacy(self):
        assert cyclically_equal((1, 2, -1), (2,))
        assert cyclically_equal((1, 2), (2, 1))
        assert not cyclically_equal((1, 2), (1, -2))
        assert not cyclically_equal((1,), (1, 1))

    def test_primitive_root(self):
        root, exp = primitive_root(reduce_word([1, 2, 1, 2, 1, 2]))
        assert root == (1, 2) and exp == 3
        root, exp = primitive_root((1, 1, 1, 1))
        assert root == (1,) and exp == 4
        # conjugated power: u a^2 u^-1
        word = reduce_word([2, 1, 1, -2])
        root, exp = primitive_root(word)
        assert exp == 2 and cyclically_equal(root, (1,))
        with pytest.raises(ValueError):
            primitive_root(())


class TestKernelSubgroups:
    def test_index_two_kernel(self):
        f2 = FreeGroup(2)
        c2 = cyclic_group(2)
        ker = KernelSubgroup(f2, c2, [(1, 0), (1, 0)])
        assert ker.index == 2
        assert ker.contains((1, 1)) and ker.contains((1, 2))
        assert not ker.contains((1,))
        # Nielsen-Schreier: rank = 1 + index*(rank-1)
        assert len(ker.schreier_generators) == 3

    def test_rewriting_reconstructs_elements(self):
        f2 = FreeGroup(2)
        c3 = cyclic_group(3)
        ker = KernelSubgroup(f2, c3, [(1, 2, 0), (1, 2, 0)])
        assert ker.index == 3
        samples = [(1, 1, 1), (1, -2), (2, 2, 2), (1, 2, -1, -2), (2, 1, 1, 2, 2, 1)]
        for word in samples:
            word = reduce_word(word)
            if not ker.contains(word):
                continue
            rebuilt = ()
            for idx, sign in ker.rewrite(word):
                gen = ker.schreier_generators[idx][2]
                rebuilt = word_multiply(
                    rebuilt, gen if sign > 0 else word_inverse(gen)
                )
            assert rebuilt == word

    def test_rewrite_rejects_outsiders(self):
        f2 = FreeGroup(2)
        c2 = cyclic_group(2)
        ker = KernelSubgroup(f2, c2, [(1, 0), (1, 0)])
        with pytest.raises(NotInSubgroup):
            ker.rewrite((1,))


class TestPinnedTransversals:
    """Transversal and Schreier orders fix the induced basis and the twist
    assignment, so they must not drift."""

    def test_finite_transversal_order(self):
        sub = finite_subgroup(symmetric_group(4), [(1, 0, 2, 3)])
        assert sub.coset_reps == (
            (0, 1, 2, 3), (1, 2, 3, 0), (3, 0, 1, 2), (2, 1, 3, 0),
            (2, 3, 0, 1), (0, 3, 1, 2), (0, 2, 1, 3), (3, 2, 0, 1),
            (3, 1, 2, 0), (2, 0, 1, 3), (1, 3, 2, 0), (0, 1, 3, 2),
        )

    def test_lattice_transversal_order(self):
        sub = lattice_subgroup(FreeAbelianGroup(2), [[2, 1], [0, 3]])
        assert sub.coset_reps == ((0, 0), (1, 0), (0, 1), (-1, 0), (0, -1), (1, -1))

    def test_kernel_transversal_and_schreier_order(self):
        ker = KernelSubgroup(FreeGroup(2), symmetric_group(3), [(1, 0, 2), (1, 2, 0)])
        assert ker.coset_reps == ((), (1,), (2,), (-2,), (1, 2), (1, -2))
        assert ker.schreier_generators == (
            (1, 0, (1, 1)),
            (2, 0, (2, 1, 2, -1)),
            (2, 1, (2, 2, 2)),
            (3, 0, (-2, 1, -2, -1)),
            (4, 0, (1, 2, 1, 2)),
            (4, 1, (1, 2, 2, 2, -1)),
            (5, 0, (1, -2, 1, -2)),
        )


S4, S5 = symmetric_group(4), symmetric_group(5)
WORDS = st.lists(st.sampled_from([1, -1, 2, -2]), max_size=8).map(reduce_word)


@st.composite
def finite_cases(draw):
    group = draw(st.sampled_from([S4, S5]))
    elements = st.sampled_from(group.elements)
    sub = finite_subgroup(group, draw(st.lists(elements, min_size=1, max_size=3)))
    assert sub.index == len(group) // len(sub.members)
    return sub, draw(elements), draw(elements), lambda z: z in sub.members


@st.composite
def lattice_cases(draw):
    rank = draw(st.integers(1, 3))
    vectors = st.lists(st.integers(-4, 4), min_size=rank, max_size=rank)
    rows = draw(st.lists(vectors, min_size=rank, max_size=rank))
    det = sympy.Matrix(rows).det()
    assume(det != 0)
    sub = lattice_subgroup(FreeAbelianGroup(rank), rows)
    assert sub.index == abs(det)

    def member(z):
        coords = sympy.Matrix(rows).T.solve(sympy.Matrix(z))
        return all(c.is_integer for c in coords)

    return sub, tuple(draw(vectors)), tuple(draw(vectors)), member


@st.composite
def kernel_cases(draw):
    images = draw(st.lists(st.sampled_from(S4.elements), min_size=2, max_size=2))
    ker = KernelSubgroup(FreeGroup(2), S4, images)
    assert ker.index == len(S4.subgroup_closure(images))

    def member(z):
        # sympy's p * q applies p first, so prepend to compose left to right
        image = Permutation(3)
        for letter in z:
            p = Permutation(list(images[abs(letter) - 1]))
            image = (p if letter > 0 else ~p) * image
        return image.is_Identity

    return ker, draw(WORDS), draw(WORDS), member


class TestCosetKeys:
    @settings(max_examples=60, deadline=None)
    @given(case=st.one_of(finite_cases(), lattice_cases(), kernel_cases()), data=st.data())
    def test_coset_lookup_matches_membership(self, case, data):
        sub, x, y, member = case
        g = sub.group
        if data.draw(st.booleans()):
            # move y into x's coset by a product of subgroup generators
            gens = list(sub.gamma_generators)
            factors = gens + [g.inverse(h) for h in gens]
            y = x
            for h in data.draw(st.lists(st.sampled_from(factors), max_size=3)):
                y = g.multiply(h, y)
        x_over_y = g.multiply(x, g.inverse(y))
        assert sub.contains(x_over_y) == member(x_over_y)
        assert (sub.coset_of(x)[0] == sub.coset_of(y)[0]) == sub.contains(x_over_y)
        for z in (x, y):
            j, gamma = sub.coset_of(z)
            assert sub.contains(gamma)
            assert g.multiply(gamma, sub.coset_reps[j]) == z
