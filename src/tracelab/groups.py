"""Discrete groups and their finite-index subgroups.

Three families, one duck-typed protocol (``identity``, ``multiply``,
``inverse``, ``generators``, ``kind``, and ``element``, which validates
input from outside the program):

* finite permutation groups (elements are permutation tuples),
* free abelian groups of finite rank (elements are integer vectors),
* free groups of finite rank (elements are reduced words; a word is a
  tuple of nonzero ints, letter ``k`` meaning generator ``k-1`` and
  ``-k`` its inverse).

:class:`FiniteIndexSubgroup` is given by a canonical right-coset key, one
function per family (finite: the smallest element of ``Gamma x``;
lattice: the fractional parts of the lattice coordinates; kernel: the
image in the finite quotient).  From it follows the coset machinery
shared by all families: membership, a BFS transversal, the coset lookup
``x = gamma * rep_j`` and the right-translation coset action
``rep_i * g = gamma * rep_j``.  Free-group subgroups are kernels of maps
onto finite groups and come with Schreier generators and rewriting, which
is what lets twists be defined on them generator by generator.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import IllFormedCosetAction, NotInSubgroup


def _integers(x) -> tuple:
    """x as a tuple of ints; ValueError unless it is a list of ints."""
    if not isinstance(x, (list, tuple)) or any(type(v) is not int for v in x):
        raise ValueError(f"expected a list of integers, got {x!r}")
    return tuple(x)


# -- permutations -------------------------------------------------------------


def perm_identity(n: int):
    return tuple(range(n))


def perm_compose(p, q):
    """(p after q): apply q first, then p."""
    return tuple(p[q[i]] for i in range(len(p)))


def perm_inverse(p):
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


class FiniteGroup:
    """Finite group of permutation tuples, closed under composition."""

    kind = "finite"

    def __init__(self, generators, name="G"):
        generators = [_integers(g) for g in generators]
        degree = len(generators[0]) if generators else 1
        for g in generators:
            if sorted(g) != list(range(degree)):
                raise ValueError(f"not a permutation of 0..{degree - 1}: {g}")
        self.name = name
        self.degree = degree
        self.generators = tuple(generators)
        self.elements = self._closure(self.generators, degree)
        self._index = {g: i for i, g in enumerate(self.elements)}

    @staticmethod
    def _closure(gens, degree):
        ident = perm_identity(degree)
        seen = {ident}
        frontier = [ident]
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = perm_compose(x, g)
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        return tuple(sorted(seen))

    def __len__(self):
        return len(self.elements)

    def __contains__(self, x):
        return tuple(x) in self._index

    def element(self, x):
        x = _integers(x)
        if x not in self._index:
            raise ValueError(f"not an element of {self.name}: {list(x)}")
        return x

    def identity(self):
        return perm_identity(self.degree)

    def multiply(self, a, b):
        return perm_compose(a, b)

    def inverse(self, a):
        return perm_inverse(a)

    def conjugacy_class(self, x):
        x = tuple(x)
        orbit = {x}
        frontier = [x]
        while frontier:
            nxt = []
            for y in frontier:
                for g in self.generators:
                    z = perm_compose(perm_compose(g, y), perm_inverse(g))
                    if z not in orbit:
                        orbit.add(z)
                        nxt.append(z)
            frontier = nxt
        return frozenset(orbit)

    def centralizer(self, x):
        x = tuple(x)
        return [
            g
            for g in self.elements
            if perm_compose(g, x) == perm_compose(x, g)
        ]

    def subgroup_closure(self, gens):
        return frozenset(self._closure(tuple(tuple(g) for g in gens), self.degree))


def symmetric_group(n: int) -> FiniteGroup:
    cycle = tuple(list(range(1, n)) + [0])
    swap = tuple([1, 0] + list(range(2, n)))
    return FiniteGroup([swap, cycle], name=f"S{n}")


def cyclic_group(n: int) -> FiniteGroup:
    cycle = tuple(list(range(1, n)) + [0])
    return FiniteGroup([cycle], name=f"C{n}")


def dihedral_group(n: int) -> FiniteGroup:
    rot = tuple(list(range(1, n)) + [0])
    refl = tuple((n - i) % n for i in range(n))
    return FiniteGroup([rot, refl], name=f"D{n}")


def alternating_group(n: int) -> FiniteGroup:
    gens = []
    for i in range(n - 2):
        c = list(range(n))
        c[i], c[i + 1], c[i + 2] = c[i + 1], c[i + 2], c[i]
        gens.append(tuple(c))
    return FiniteGroup(gens, name=f"A{n}")


def quaternion_group() -> FiniteGroup:
    # regular action of Q8 = {1,-1,i,-i,j,-j,k,-k} on itself
    labels = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    table = {}

    def unit_mul(a, b):
        sign = 1
        if a.startswith("-"):
            sign, a = -sign, a[1:]
        if b.startswith("-"):
            sign, b = -sign, b[1:]
        rules = {
            ("1", "1"): (1, "1"),
            ("1", "i"): (1, "i"),
            ("1", "j"): (1, "j"),
            ("1", "k"): (1, "k"),
            ("i", "1"): (1, "i"),
            ("j", "1"): (1, "j"),
            ("k", "1"): (1, "k"),
            ("i", "i"): (-1, "1"),
            ("j", "j"): (-1, "1"),
            ("k", "k"): (-1, "1"),
            ("i", "j"): (1, "k"),
            ("j", "i"): (-1, "k"),
            ("j", "k"): (1, "i"),
            ("k", "j"): (-1, "i"),
            ("k", "i"): (1, "j"),
            ("i", "k"): (-1, "j"),
        }
        s, unit = rules[(a, b)]
        sign *= s
        return unit if sign > 0 else "-" + unit

    for a in labels:
        table[a] = {b: unit_mul(a, b) for b in labels}
    idx = {lab: i for i, lab in enumerate(labels)}

    def left_perm(a):
        return tuple(idx[table[a][b]] for b in labels)

    return FiniteGroup([left_perm("i"), left_perm("j")], name="Q8")


class FreeAbelianGroup:
    """Z^rank with integer-vector elements."""

    kind = "free_abelian"

    def __init__(self, rank: int):
        self.rank = rank
        self.name = f"Z^{rank}"
        self.generators = tuple(
            tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)
        )

    def element(self, x):
        x = _integers(x)
        if len(x) != self.rank:
            raise ValueError(f"expected a vector of length {self.rank}, got {list(x)}")
        return x

    def identity(self):
        return (0,) * self.rank

    def multiply(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def inverse(self, a):
        return tuple(-x for x in a)


# -- free-group words ---------------------------------------------------------


def reduce_word(letters):
    out = []
    for letter in letters:
        if letter == 0:
            raise ValueError("0 is not a letter")
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def word_multiply(a, b):
    return reduce_word(list(a) + list(b))


def word_inverse(a):
    return tuple(-x for x in reversed(a))


def cyclic_reduce(word):
    """(core, conjugator u) with word = u * core * u^-1, core cyclically reduced."""
    w = list(word)
    u = []
    while len(w) >= 2 and w[0] == -w[-1]:
        u.append(w[0])
        w = w[1:-1]
    return tuple(w), tuple(u)


def primitive_root(word):
    """(root, exponent) with word = root**exponent and root not a proper power.

    The identity has no primitive root; callers must special-case it.
    """
    core, u = cyclic_reduce(word)
    if not core:
        raise ValueError("identity has no primitive root")
    n = len(core)
    for period in range(1, n + 1):
        if n % period:
            continue
        if core == core[:period] * (n // period):
            root_core = core[:period]
            exponent = n // period
            root = reduce_word(list(u) + list(root_core) + list(word_inverse(u)))
            return root, exponent
    raise AssertionError("unreachable: full period always divides")


def cyclically_equal(a, b) -> bool:
    """Conjugacy test in a free group: equality of cyclic words."""
    ca, _ = cyclic_reduce(reduce_word(a))
    cb, _ = cyclic_reduce(reduce_word(b))
    if len(ca) != len(cb):
        return False
    if not ca:
        return True
    doubled = ca + ca
    n = len(ca)
    return any(doubled[i : i + n] == cb for i in range(n))


class FreeGroup:
    """Free group of finite rank on reduced words."""

    kind = "free"

    def __init__(self, rank: int):
        self.rank = rank
        self.name = f"F{rank}"
        self.generators = tuple((i + 1,) for i in range(rank))

    def element(self, x):
        """The word as written, letters checked but not reduced."""
        x = _integers(x)
        if not all(0 < abs(letter) <= self.rank for letter in x):
            raise ValueError(
                f"letters must be nonzero with |letter| <= {self.rank}, got {list(x)}"
            )
        return x

    def identity(self):
        return ()

    def multiply(self, a, b):
        return word_multiply(a, b)

    def inverse(self, a):
        return word_inverse(a)


# -- finite-index subgroups ----------------------------------------------------


class FiniteIndexSubgroup:
    """Finite-index subgroup given by its canonical right-coset key.

    ``coset_key(x) == coset_key(y)`` exactly when ``x * y^-1`` lies in the
    subgroup, so the key names the right coset ``Gamma x``; membership,
    the transversal and the coset lookup all follow from it.  The
    transversal starts at the identity and is built breadth-first over
    the ambient generators, so it is deterministic.
    ``coset_action(g, i) = (j, gamma)`` solves ``rep_i * g = gamma * rep_j``
    with ``gamma`` in the subgroup, which is exactly the cocycle the
    induced representation twists by.
    """

    def __init__(self, group, coset_key, gamma_generators, name="Gamma"):
        self.group = group
        self.name = name
        self.coset_key = coset_key
        self.gamma_generators = tuple(gamma_generators)
        self.coset_reps, self._slot = self._transversal()
        self.index = len(self.coset_reps)
        self._check_action()

    def contains(self, x) -> bool:
        # the identity's coset, slot 0, is the subgroup itself
        return self._slot.get(self.coset_key(x)) == 0

    def _transversal(self):
        g = self.group
        gens = list(g.generators) + [g.inverse(x) for x in g.generators]
        reps = [g.identity()]
        slot = {self.coset_key(g.identity()): 0}
        frontier = [g.identity()]
        while frontier:
            nxt = []
            for rep in frontier:
                for s in gens:
                    cand = g.multiply(rep, s)
                    key = self.coset_key(cand)
                    if key not in slot:
                        slot[key] = len(reps)
                        reps.append(cand)
                        nxt.append(cand)
            frontier = nxt
        return tuple(reps), slot

    def coset_of(self, x):
        """(j, gamma) with x = gamma * rep_j and gamma in the subgroup."""
        j = self._slot.get(self.coset_key(x))
        if j is None:
            raise IllFormedCosetAction(f"element {x!r} lies in no coset")
        g = self.group
        return j, g.multiply(x, g.inverse(self.coset_reps[j]))

    def coset_action(self, g_elt, i: int):
        """(j, gamma) with rep_i * g = gamma * rep_j."""
        g = self.group
        return self.coset_of(g.multiply(self.coset_reps[i], g_elt))

    def _check_action(self):
        # each generator must permute the cosets
        g = self.group
        for s in g.generators:
            targets = [self.coset_action(s, i)[0] for i in range(self.index)]
            if sorted(targets) != list(range(self.index)):
                raise IllFormedCosetAction(
                    f"generator {s!r} does not permute the cosets"
                )


def finite_subgroup(group: FiniteGroup, generators, name="Gamma") -> FiniteIndexSubgroup:
    """Subgroup generated by permutations; the key of ``Gamma x`` is its
    smallest element."""
    members = group.subgroup_closure(generators)
    sub = FiniteIndexSubgroup(
        group,
        lambda x: min(perm_compose(m, x) for m in members),
        tuple(tuple(g) for g in generators),
        name=name,
    )
    sub.members = members
    return sub


def lattice_subgroup(group: FreeAbelianGroup, basis, name="Lattice") -> FiniteIndexSubgroup:
    """Sublattice of Z^n spanned by integer basis rows (must be full rank).

    The key of a coset is the fractional part of the lattice coordinates.
    """
    rank = group.rank
    rows = [tuple(int(x) for x in row) for row in basis]
    if len(rows) != rank:
        raise ValueError("lattice basis must have one row per rank")

    def solve(vector):
        # exact rational solve of basis^T c = vector
        mat = [[Fraction(rows[j][i]) for j in range(rank)] for i in range(rank)]
        rhs = [Fraction(v) for v in vector]
        # gaussian elimination
        for col in range(rank):
            pivot = next(
                (r for r in range(col, rank) if mat[r][col] != 0), None
            )
            if pivot is None:
                return None
            mat[col], mat[pivot] = mat[pivot], mat[col]
            rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
            inv = 1 / mat[col][col]
            mat[col] = [x * inv for x in mat[col]]
            rhs[col] = rhs[col] * inv
            for r in range(rank):
                if r != col and mat[r][col] != 0:
                    f = mat[r][col]
                    mat[r] = [a - f * b for a, b in zip(mat[r], mat[col])]
                    rhs[r] = rhs[r] - f * rhs[col]
        return rhs

    def coset_key(vector):
        coords = solve(vector)
        if coords is None:
            raise ValueError("lattice basis is singular")
        return tuple(c % 1 for c in coords)

    sub = FiniteIndexSubgroup(group, coset_key, tuple(rows), name=name)
    sub.lattice_basis = tuple(rows)
    sub.coordinates_in_lattice = solve
    return sub


class KernelSubgroup(FiniteIndexSubgroup):
    """Kernel of a map from a free group onto a finite permutation group.

    The coset key is evaluation of the quotient map; the subgroup is free
    on its Schreier generators, which are enumerated deterministically
    (transversal order, then ambient generator index) and drive both the
    twist assignment and the rewriting of kernel elements.
    """

    def __init__(self, group: FreeGroup, quotient: FiniteGroup, images, name="Ker"):
        if len(images) != group.rank:
            raise ValueError("one image per free generator required")
        self.quotient = quotient
        self.images = tuple(tuple(im) for im in images)
        super().__init__(group, self.evaluate, (), name=name)
        self._build_schreier()
        # gamma generators are the Schreier generators
        self.gamma_generators = tuple(word for _, _, word in self.schreier_generators)

    def evaluate(self, word):
        """Image of a word in the quotient."""
        acc = self.quotient.identity()
        for letter in word:
            img = self.images[abs(letter) - 1]
            if letter < 0:
                img = perm_inverse(img)
            acc = perm_compose(acc, img)
        return acc

    def _build_schreier(self):
        gens = []
        lookup = {}
        for i in range(self.index):
            for s_idx in range(self.group.rank):
                s = (s_idx + 1,)
                j, gamma = self.coset_action(s, i)
                if gamma:  # nontrivial Schreier generator
                    lookup[(i, s_idx)] = (j, len(gens))
                    gens.append((i, s_idx, gamma))
                else:
                    lookup[(i, s_idx)] = (j, None)
        self.schreier_generators = tuple(gens)
        self._schreier_lookup = lookup

    def rewrite(self, word):
        """Express a kernel element as a word in the Schreier generators.

        Returns a list of (generator_index, +-1).  Raises NotInSubgroup
        when the element is not in the kernel.
        """
        if not self.contains(word):
            raise NotInSubgroup(f"{word!r} is not in {self.name}")
        out = []
        coset = 0
        for letter in word:
            s_idx = abs(letter) - 1
            if letter > 0:
                j, gen_idx = self._schreier_lookup[(coset, s_idx)]
                if gen_idx is not None:
                    out.append((gen_idx, +1))
                coset = j
            else:
                # the coset j with rep_j * s in coset `coset`
                j, _ = self.coset_action((letter,), coset)
                _, gen_idx = self._schreier_lookup[(j, s_idx)]
                if gen_idx is not None:
                    out.append((gen_idx, -1))
                coset = j
        if coset != 0:
            raise IllFormedCosetAction("rewriting did not return to the base coset")
        return out


def conjugacy_test(group, x, y) -> bool:
    """Are x and y conjugate in the ambient group?"""
    if group.kind == "finite":
        return tuple(y) in group.conjugacy_class(x)
    if group.kind == "free_abelian":
        return tuple(x) == tuple(y)
    return cyclically_equal(x, y)
