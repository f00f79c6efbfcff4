"""The trace formula for discrete groups with finite-index subgroups.

Measure normalization (this is the one global convention, and both sides
depend on it): counting measure on the ambient group, on the subgroup and
on every quotient.  Volumes of centralizer quotients are coset counts,
orbital integrals are sums of test-function values over conjugacy
classes, and the whole formula becomes an identity between finite sums of
twist traces and test-function values - exact rational identities on the
exact backend.

Three quantities are computed independently for a scenario:

* the direct trace of the induced operator (kernel-diagonal oracle),
* the spectral side: Jordan-Hoelder multiplicities from a composition
  series of the induced model, weighting factor operator traces,
* the geometric side: conjugacy classes weighted by centralizer volumes,
  orbital sums and twist traces.

``verify_discrete`` asserts all three agree.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import (
    BackendMismatch,
    IllFormedCosetAction,
    NotInSubgroup,
    RelationViolation,
    SizeLimit,
    TraceMismatch,
)
from .groups import (
    FiniteIndexSubgroup,
    KernelSubgroup,
    conjugacy_test,
    cyclic_reduce,
    cyclically_equal,
    perm_compose,
    primitive_root,
    word_inverse,
    word_multiply,
)
from .linalg import Matrix
from .scalars import (
    DEFAULT_CONTEXT,
    EXACT,
    ToleranceContext,
    coerce,
    one,
    zero,
)
from .spectral import (
    AdmissibleModel,
    SeriesData,
    composition_series_data,
    default_resolvent_sample,
    multiplicity_table,
    spectral_trace,
)

MAX_INDUCED_DIM = 2000

# default approx agreement of the three sides, relative above unit scale
DEFAULT_SIDE_TOLERANCE = 1e-9


class Twist:
    """Finite-dimensional representation of the subgroup.

    Images are assigned to the subgroup's generators (for free-group
    kernels: its Schreier generators).  Construction verifies the
    family's defining relations: the full multiplication table for finite
    subgroups, pairwise commutativity for lattices, nothing for free
    subgroups.  Evaluation at an arbitrary subgroup element goes through
    the family's word machinery.
    """

    def __init__(self, subgroup: FiniteIndexSubgroup, images, label="omega", context: ToleranceContext = DEFAULT_CONTEXT):
        self.subgroup = subgroup
        self.images = tuple(images)
        self.label = label
        self.context = context
        if not self.images:
            raise ValueError("twist needs at least one generator image")
        self.backend = self.images[0].backend
        self.dim = self.images[0].rows
        for im in self.images:
            if im.shape != (self.dim, self.dim):
                raise ValueError("twist images must be square of equal size")
            if im.backend != self.backend:
                raise BackendMismatch("twist images on mixed backends")
            if not im.is_invertible(self.context):
                raise RelationViolation("twist image is singular")
        kind = subgroup.group.kind
        if len(self.images) != len(subgroup.gamma_generators):
            raise ValueError(
                f"expected {len(subgroup.gamma_generators)} images "
                f"(one per subgroup generator), got {len(self.images)}"
            )
        if kind == "finite":
            self._table = self._build_finite_table()
        elif kind == "free_abelian":
            self._check_commuting()
        elif kind == "free":
            if not isinstance(subgroup, KernelSubgroup):
                raise ValueError("free-group twists require a kernel subgroup")
        else:
            raise ValueError(f"unknown family {kind}")

    def _build_finite_table(self):
        group = self.subgroup.group
        gens = self.subgroup.gamma_generators
        table = {group.identity(): Matrix.identity(self.dim, self.backend)}
        frontier = [group.identity()]
        pairs = list(zip(gens, self.images)) + [
            (group.inverse(g), im.inverse()) for g, im in zip(gens, self.images)
        ]
        while frontier:
            nxt = []
            for elt in frontier:
                for g, im in pairs:
                    target = group.multiply(elt, g)
                    candidate = table[elt] @ im
                    known = table.get(target)
                    if known is None:
                        table[target] = candidate
                        nxt.append(target)
                    elif not known.agrees_with(candidate, self.context):
                        raise RelationViolation(
                            f"twist images violate the relation at {target!r}"
                        )
            frontier = nxt
        members = getattr(self.subgroup, "members", None)
        if members is not None and set(table) != set(members):
            raise RelationViolation(
                "twist generators do not generate the subgroup"
            )
        return table

    def _check_commuting(self):
        for i, a in enumerate(self.images):
            for b in self.images[i + 1 :]:
                if not (a @ b).agrees_with(b @ a, self.context):
                    raise RelationViolation("lattice twist images must commute")

    def omega(self, gamma) -> Matrix:
        """Value of the twist at a subgroup element."""
        sub = self.subgroup
        kind = sub.group.kind
        if kind == "finite":
            value = self._table.get(tuple(gamma))
            if value is None:
                raise NotInSubgroup(f"{gamma!r} is not in {sub.name}")
            return value
        if kind == "free_abelian":
            coords = sub.coordinates_in_lattice(gamma)
            if coords is None or any(c.denominator != 1 for c in coords):
                raise NotInSubgroup(f"{gamma!r} is not in {sub.name}")
            out = Matrix.identity(self.dim, self.backend)
            for c, im in zip(coords, self.images):
                power = int(c)
                if power:
                    out = out @ im.power(power)
            return out
        word = sub.rewrite(gamma)  # NotInSubgroup raised inside
        out = Matrix.identity(self.dim, self.backend)
        for idx, sign in word:
            im = self.images[idx]
            out = out @ (im if sign > 0 else im.inverse())
        return out

    def trace_at(self, gamma):
        return self.omega(gamma).trace()

    def direct_sum(self, other: "Twist") -> "Twist":
        if other.subgroup is not self.subgroup:
            raise ValueError("direct sum requires the same subgroup")
        images = [
            Matrix.block_diag([a, b]) for a, b in zip(self.images, other.images)
        ]
        return Twist(self.subgroup, images, label=f"{self.label}(+){other.label}")


def trivial_twist(subgroup: FiniteIndexSubgroup, dim: int = 1, backend: str = EXACT) -> Twist:
    ident = Matrix.identity(dim, backend)
    images = [ident for _ in subgroup.gamma_generators]
    return Twist(subgroup, images, label="1")


class DiscreteTestFunction:
    """Finitely supported function on the ambient group."""

    def __init__(self, support, backend=EXACT):
        canonical = {}
        for element, coeff in support:
            key = tuple(element)
            coeff = coerce(coeff, backend)
            if key in canonical:
                canonical[key] = canonical[key] + coeff
            else:
                canonical[key] = coeff
        self.backend = backend
        self.support = tuple(sorted(canonical.items()))

    def value(self, element):
        key = tuple(element)
        for elt, coeff in self.support:
            if elt == key:
                return coeff
        return zero(self.backend)

    def conjugated_by(self, g, group) -> "DiscreteTestFunction":
        """x -> f(g^-1 x g); support moves to g (supp) g^-1."""
        ginv = group.inverse(g)
        moved = [
            (group.multiply(group.multiply(g, elt), ginv), coeff)
            for elt, coeff in self.support
        ]
        return DiscreteTestFunction(moved, self.backend)


def delta_function(element, backend=EXACT, coeff=None) -> DiscreteTestFunction:
    if coeff is None:
        coeff = one(backend)
    return DiscreteTestFunction([(element, coeff)], backend)


@dataclass(frozen=True)
class InducedRep:
    """Finite-dimensional model of the twisted section space.

    Basis indexed by (coset, twist coordinate); the group acts by
    permuting coset blocks with twist cocycles on wrap-around.
    """

    subgroup: FiniteIndexSubgroup
    twist: Twist
    model: AdmissibleModel

    @property
    def dim(self) -> int:
        return self.model.dim

    def operator(self, element) -> Matrix:
        """Matrix of the right-translation action of a group element."""
        return _induced_operator(self.subgroup, self.twist, element)


def _induced_operator(subgroup, twist, element) -> Matrix:
    index = subgroup.index
    dv = twist.dim
    backend = twist.backend
    n = index * dv
    grid = [[zero(backend)] * n for _ in range(n)]
    for i in range(index):
        j, gamma = subgroup.coset_action(element, i)
        block = twist.omega(gamma)
        for p in range(dv):
            for q in range(dv):
                grid[i * dv + p][j * dv + q] = block.entries[p][q]
    return Matrix(grid, backend)


def induce(subgroup: FiniteIndexSubgroup, twist: Twist, context: ToleranceContext = DEFAULT_CONTEXT) -> InducedRep:
    """Induced representation as an admissible model.

    The distinguished operator is the symmetrized sum of the generator
    images, which lies in the image of the group algebra, so every
    invariant subspace is automatically stable under it.  The
    homomorphism property is verified exactly on all generator pairs and
    on four short words drawn from a fixed seed.
    """
    if twist.subgroup is not subgroup:
        raise ValueError("twist is attached to a different subgroup")
    n = subgroup.index * twist.dim
    if n > MAX_INDUCED_DIM:
        raise SizeLimit(f"induced dimension {n} exceeds {MAX_INDUCED_DIM}")
    group = subgroup.group
    gens = list(group.generators)
    images = [_induced_operator(subgroup, twist, g) for g in gens]
    ctx = context
    for gi, g in zip(images, gens):
        for hj, h in zip(images, gens):
            prod = group.multiply(g, h)
            if not (gi @ hj).agrees_with(_induced_operator(subgroup, twist, prod), ctx):
                raise IllFormedCosetAction(
                    "induced operators violate the homomorphism property"
                )
    rng = random.Random(0)
    for _ in range(4):
        length = rng.randint(2, 4)
        word = [rng.randrange(len(gens)) for _ in range(length)]
        elt = group.identity()
        op = Matrix.identity(n, twist.backend)
        for k in word:
            elt = group.multiply(elt, gens[k])
            op = op @ images[k]
        if not op.agrees_with(_induced_operator(subgroup, twist, elt), ctx):
            raise IllFormedCosetAction(
                "induced operators violate the homomorphism property on a word"
            )
    delta = Matrix.zeros(n, n, twist.backend)
    for im in images:
        delta = delta + im + im.inverse()
    label = f"Ind[{subgroup.name}->{group.name}]({twist.label})"
    model = AdmissibleModel(
        tuple(images),
        delta,
        default_resolvent_sample(delta, ctx),
        label,
        ctx,
    )
    return InducedRep(subgroup, twist, model)


def operator_of_test_function(rep: InducedRep, f: DiscreteTestFunction) -> Matrix:
    """R(f) = sum of f-values times translation operators (counting measure)."""
    n = rep.dim
    out = Matrix.zeros(n, n, rep.twist.backend)
    for element, coeff in f.support:
        out = out + rep.operator(element).scale(coeff)
    return out


# -- geometric side -----------------------------------------------------------


@dataclass(frozen=True)
class ConjugacyClassData:
    representative: tuple
    description: str


def conjugacy_classes_meeting(subgroup: FiniteIndexSubgroup, support):
    """Subgroup conjugacy classes whose ambient class meets the support.

    Only these classes can contribute to the geometric side.  Distinct
    subgroup classes inside one ambient class stay distinct.
    """
    group = subgroup.group
    kind = group.kind
    out = []
    seen = []

    def push(gamma, description):
        for prior in seen:
            if _subgroup_conjugate(subgroup, prior, gamma):
                return
        seen.append(gamma)
        out.append(ConjugacyClassData(tuple(gamma), description))

    for x in support:
        x = tuple(x)
        if kind == "free_abelian":
            if subgroup.contains(x):
                push(x, f"singleton class of {x}")
        elif kind == "finite":
            ambient_class = group.conjugacy_class(x)
            members = [g for g in ambient_class if subgroup.contains(g)]
            for gamma in members:
                push(gamma, f"class of {gamma} (ambient class size {len(ambient_class)})")
        else:  # free
            if not subgroup.contains(x):
                continue  # kernels are normal: ambient class stays outside
            if x == group.identity():
                push(x, "identity class")
                continue
            rho, _ = primitive_root(x)
            orbits = _coset_orbits_under(subgroup, rho)
            for orbit in orbits:
                u = subgroup.coset_reps[orbit[0]]
                gamma = group.multiply(group.multiply(u, x), group.inverse(u))
                push(gamma, f"class of {gamma} (primitive root {rho})")
    return out


def _coset_orbits_under(subgroup, element):
    """Orbits of right multiplication by one element on the coset space."""
    index = subgroup.index
    seen = [False] * index
    orbits = []
    for start in range(index):
        if seen[start]:
            continue
        orbit = []
        i = start
        while not seen[i]:
            seen[i] = True
            orbit.append(i)
            i, _ = subgroup.coset_action(element, i)
        orbits.append(orbit)
    return orbits


def _subgroup_conjugate(subgroup, a, b) -> bool:
    group = subgroup.group
    kind = group.kind
    if kind == "free_abelian":
        return tuple(a) == tuple(b)
    if kind == "finite":
        members = getattr(subgroup, "members", None)
        if members is None:
            members = [g for g in group.elements if subgroup.contains(g)]
        return any(
            group.multiply(group.multiply(g, a), group.inverse(g)) == tuple(b)
            for g in members
        )
    # free kernel: a ~ b within the subgroup iff b = u a u^-1 with u in the
    # kernel; check over coset orbit representatives of the conjugating set
    if tuple(a) == () or tuple(b) == ():
        return tuple(a) == tuple(b)
    if not cyclically_equal(a, b):
        return False
    rho, _ = primitive_root(a)
    # u ranges over G with u a u^-1 = b; the solutions form a coset of the
    # centralizer <rho>; the pair is subgroup-conjugate iff that coset meets
    # the kernel, i.e. iff some rho-power times a particular solution lands
    # in the kernel.
    u0 = _free_conjugator(a, b)
    group_q = subgroup.quotient
    target = subgroup.evaluate(u0)
    rho_img = subgroup.evaluate(rho)
    power = group_q.identity()
    for _ in range(len(group_q)):
        if perm_compose(power, target) == group_q.identity():
            return True
        power = perm_compose(rho_img, power)
    return False


def _free_conjugator(a, b):
    """Some word u with u a u^-1 = b (exists when cyclically equal)."""
    core_a, u_a = cyclic_reduce(a)
    core_b, u_b = cyclic_reduce(b)
    n = len(core_a)
    doubled = core_a + core_a
    for shift in range(n):
        if doubled[shift : shift + n] == core_b:
            # core_b = w^-1 core_a w with w = first `shift` letters
            w = core_a[:shift]
            # b = u_b core_b u_b^-1 = u_b w^-1 u_a^-1 a u_a w u_b^-1
            u = word_multiply(word_multiply(u_b, word_inverse(w)), word_inverse(u_a))
            return u
    raise ValueError("words are not conjugate")


def centralizer_volume(subgroup: FiniteIndexSubgroup, gamma) -> int:
    """Coset count of the subgroup centralizer inside the ambient one."""
    group = subgroup.group
    gamma = tuple(gamma)
    if not subgroup.contains(gamma):
        raise NotInSubgroup(f"{gamma!r} is not in {subgroup.name}")
    kind = group.kind
    if kind == "free_abelian":
        return subgroup.index
    if kind == "finite":
        centralizer = group.centralizer(gamma)
        inner = [g for g in centralizer if subgroup.contains(g)]
        return len(centralizer) // len(inner)
    if gamma == group.identity():
        return subgroup.index
    rho, _ = primitive_root(gamma)
    power = rho
    for e in range(1, len(subgroup.quotient) + 1):
        if subgroup.contains(power):
            return e
        power = group.multiply(power, rho)
    raise IllFormedCosetAction("no power of the primitive root lies in the kernel")


def orbital_sum(group, gamma, f: DiscreteTestFunction):
    """Sum of f over the ambient conjugacy class of gamma.

    With counting measure the cosets of the centralizer biject with the
    conjugates, so the orbital integral is this class sum.
    """
    total = zero(f.backend)
    for element, coeff in f.support:
        if conjugacy_test(group, gamma, element):
            total = total + coeff
    return total


@dataclass(frozen=True)
class GeometricTerm:
    representative: tuple
    volume: int
    orbital: object
    twist_trace: object
    value: object
    description: str


def geometric_side_discrete(subgroup: FiniteIndexSubgroup, twist: Twist, f: DiscreteTestFunction):
    """Conjugacy-class sum vol * orbital * tr(omega); returns (value, terms)."""
    classes = conjugacy_classes_meeting(subgroup, [x for x, _ in f.support])
    total = zero(twist.backend)
    terms = []
    for cls in classes:
        vol = centralizer_volume(subgroup, cls.representative)
        orb = orbital_sum(subgroup.group, cls.representative, f)
        tr = twist.trace_at(cls.representative)
        value = vol * orb * tr
        total = total + value
        terms.append(
            GeometricTerm(cls.representative, vol, orb, tr, value, cls.description)
        )
    return total, terms


@dataclass(frozen=True)
class DiscreteVerification:
    direct_trace: object
    spectral_side: object
    geometric_side: object
    table: object
    geometric_terms: tuple
    series: SeriesData
    passed: bool
    failures: tuple


def verify_discrete(
    subgroup: FiniteIndexSubgroup,
    twist: Twist,
    f: DiscreteTestFunction,
    context: ToleranceContext = DEFAULT_CONTEXT,
    tolerance: float | None = None,
) -> DiscreteVerification:
    """Three-way check: direct trace = spectral side = geometric side.

    Exact backend: literal equalities.  Approx backend: agreement within
    ``tolerance`` (default ``DEFAULT_SIDE_TOLERANCE``, relative above unit
    scale).
    """
    rep = induce(subgroup, twist, context)
    f_op = operator_of_test_function(rep, f)
    direct = f_op.trace()
    series = composition_series_data(rep.model)
    failures = []
    try:
        spectral = spectral_trace(rep.model, f_op, series)
    except TraceMismatch as exc:
        spectral = None
        failures.append(str(exc))
    geometric, terms = geometric_side_discrete(subgroup, twist, f)
    table = multiplicity_table(rep.model, series)
    if twist.backend == EXACT:
        if spectral is not None and spectral != direct:
            failures.append(f"spectral {spectral} != direct {direct}")
        if geometric != direct:
            failures.append(f"geometric {geometric} != direct {direct}")
    else:
        tol = DEFAULT_SIDE_TOLERANCE if tolerance is None else tolerance
        slack = tol * max(1.0, abs(direct))
        note = (
            f"allowed slack = tolerance {tol:g} * max(1, |direct trace|); "
            "approx equalities are always tolerance-mediated"
        )
        if tol <= 0.0:
            failures.append(
                "TraceMismatch: tolerance 0 is unsatisfiable on the approx "
                "backend; equality of floating traces is only meaningful "
                "through a positive tolerance (use the exact backend for "
                "literal identities)"
            )
        if spectral is not None and abs(spectral - direct) > slack:
            failures.append(
                f"TraceMismatch: spectral {spectral!r} deviates from direct "
                f"{direct!r} by {abs(spectral - direct):.3e} > {slack:.3e} ({note})"
            )
        if abs(geometric - direct) > slack:
            failures.append(
                f"TraceMismatch: geometric {geometric!r} deviates from direct "
                f"{direct!r} by {abs(geometric - direct):.3e} > {slack:.3e} ({note})"
            )
    return DiscreteVerification(
        direct,
        spectral,
        geometric,
        table,
        tuple(terms),
        series,
        passed=not failures,
        failures=tuple(failures),
    )
