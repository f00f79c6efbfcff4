"""Spectral core: admissible finite-dimensional models and their invariants.

An :class:`AdmissibleModel` packages a tuple of invertible generator
images together with a distinguished operator ``delta`` whose generalized
eigenspaces organise everything else.  On top of it this module builds

* the spectrum and spectral projectors (direct, and through the
  resolvent power iteration with nilpotent binomial corrections),
* composition series with certified irreducible quotients,
* class bookkeeping (``PiClass``), Jordan-Hoelder multiplicities and the
  multiplicity-weighted trace identity,
* sub-quotient spectrum bookkeeping.

Certification strategy.  A proper invariant subspace is searched with
deterministic probes, operators in the algebra the generators span.  A
probe eigenvalue with a one-dimensional kernel is conclusive in both
directions: spinning its kernel vector and the transposed kernel vector
either exhibits a proper subspace (directly, or through the annihilator
of a proper dual subspace) or proves there is none.  The stages, each of
which finds a subspace, certifies there is none, or is undecided:

1. the short tier (``delta``, each generator image g, g + g^-1) at
   eigenvalues and multiplicities from an integer scan, then spins of the
   kernels it left undecided;
2. exact only: the structural backstop (radical of the generated
   algebra, then commutant elements read by their charpolys), cheaper
   than the extended tier;
3. the extended tier (products, small combinations, ``delta`` g), then
   spins of its own undecided kernels;
4. exact: the short tier with complete spectra; approx: the backstop.

On approx, a backstop certificate is not trusted while a proper dual
subspace is left without a witness, so the search skips its backstop; on
exact the annihilator of a proper dual subspace is always a witness.
When every stage is undecided `IrreducibilityUndecided` is raised rather
than guessed away.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BackendMismatch,
    BadLambda,
    IrreducibilityUndecided,
    NonIrreduciblePi,
    NotStable,
    SigmaNotSpectral,
    SlowContraction,
    TraceMismatch,
)
from .linalg import (
    Matrix,
    Span,
    charpoly,
    eigenvalues,
    factor_gaussian,
    gaussian_rational_roots,
    generalized_eigenspace,
    generalized_eigenspaces,
    intertwiner_space,
    nullspace,
    resolvent,
    root_candidates,
    scan_roots,
    span_of,
)
from .scalars import (
    APPROX,
    DEFAULT_CONTEXT,
    EXACT,
    GR_I,
    GR_ZERO,
    GaussianRational,
    ToleranceContext,
    coerce,
    zero,
)


@dataclass(frozen=True)
class AdmissibleModel:
    """Finite-dimensional model: generator images plus the operator delta.

    Invariants checked at construction: all generator images are square,
    invertible, and of the same size as ``delta``; every point of
    ``resolvent_sample`` is off the spectrum of ``delta``.  Instances are
    immutable; operations on them are pure functions.

    Admissibility also asks that every invariant subspace be stable under
    the resolvents of ``delta``.  In finite dimension the resolvent is a
    rational function of ``delta``, so stability at one non-spectral
    point implies it at all of them; the test suite therefore checks the
    stronger statement at every sampled point instead of a single
    distinguished shift.

    Two internal constructions skip these checks (``_trusted_model``),
    because they hold by construction.  A restriction to an invariant
    subspace or a quotient by one is a diagonal block of a block-triangular
    conjugate, so its images stay invertible, and the spectrum of its
    ``delta`` lies inside the spectrum of the ambient ``delta``, which the
    inherited resolvent sample avoids.  A conjugate by an invertible matrix
    (the random trials of ``random_pi_filtration_length``) keeps both the
    invertibility and the spectrum.  The invariance of the subspace is
    still checked, every time.
    """

    generators: tuple
    delta: Matrix
    resolvent_sample: tuple = ()
    label: str = ""
    context: ToleranceContext = field(default=DEFAULT_CONTEXT, compare=False)
    _canonical_key: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        object.__setattr__(self, "resolvent_sample", tuple(self.resolvent_sample))
        n = self.delta.rows
        if self.delta.cols != n:
            raise ValueError("delta must be square")
        for g in self.generators:
            if g.shape != (n, n):
                raise ValueError("generator image has wrong shape")
            if g.backend != self.delta.backend:
                raise BackendMismatch("generators and delta on different backends")
        ctx = self.context
        for g in self.generators:
            if not g.is_invertible(ctx):
                raise ValueError("generator image is singular")
        ident = Matrix.identity(n, self.backend)
        for lam in self.resolvent_sample:
            if not (self.delta - ident.scale(lam)).is_invertible(ctx):
                raise ValueError(f"resolvent sample {lam} lies on the spectrum")

    @property
    def dim(self) -> int:
        return self.delta.rows

    @property
    def backend(self) -> str:
        return self.delta.backend


_RESOLVENT_CANDIDATES = (
    GaussianRational(0, 1),
    GaussianRational(1, 1),
    GaussianRational(-2, 3),
    GaussianRational(0, -5),
    GaussianRational(7, 2),
)


def default_resolvent_sample(delta: Matrix, ctx: ToleranceContext = DEFAULT_CONTEXT):
    """Pick two non-real sample points off the spectrum of delta (an avatar
    of the dense resolvent set the admissibility axioms posit)."""
    out = []
    ident = Matrix.identity(delta.rows, delta.backend)
    for lam in _RESOLVENT_CANDIDATES:
        lam = coerce(lam, delta.backend)
        if (delta - ident.scale(lam)).is_invertible(ctx):
            out.append(lam)
            if len(out) == 2:
                break
    return tuple(out)


def model(generators, delta, label="", resolvent_sample=None, context=DEFAULT_CONTEXT) -> AdmissibleModel:
    """Convenience constructor that fills in a default resolvent sample."""
    if resolvent_sample is None:
        resolvent_sample = default_resolvent_sample(delta, context)
    return AdmissibleModel(tuple(generators), delta, tuple(resolvent_sample), label, context)


def _trusted_model(generators, delta, resolvent_sample, label, context) -> AdmissibleModel:
    """An AdmissibleModel built without the determinant and resolvent checks
    of ``__post_init__``, for the constructions its docstring lists."""
    m = object.__new__(AdmissibleModel)
    for name, value in (
        ("generators", tuple(generators)),
        ("delta", delta),
        ("resolvent_sample", tuple(resolvent_sample)),
        ("label", label),
        ("context", context),
        ("_canonical_key", None),
    ):
        object.__setattr__(m, name, value)
    return m


# -- basis surgery -----------------------------------------------------------


@dataclass(frozen=True)
class BasisSplit:
    """Change of basis adapted to a subspace: columns = basis ++ complement."""

    basis: tuple
    complement: tuple
    p: Matrix
    p_inv: Matrix

    @property
    def sub_dim(self) -> int:
        return len(self.basis)


def split_basis(vectors, dim: int, backend: str, ctx: ToleranceContext = DEFAULT_CONTEXT) -> BasisSplit:
    """The approx transport's change of basis: an orthonormal basis of the
    span, then its orthonormal complement (approx backend only)."""
    basis = span_of(vectors, dim, backend, ctx).basis()
    complement = span_of(basis, dim, backend, ctx).extend_to_full()
    p = Matrix.from_columns(list(basis) + complement, backend)
    return BasisSplit(tuple(basis), tuple(complement), p, p.inverse(ctx))


def _transported_model(m: AdmissibleModel, vectors, block: int, label_suffix: str):
    """The model ``m`` induces on the span of ``vectors`` (``block`` 0) or
    on the quotient by it (``block`` 1), built as a trusted model.

    Returns (model, basis, lift): the restriction is written in ``basis``,
    and ``lift`` maps quotient coordinates to ambient representatives.
    NotStable when the span is not invariant under a generator or delta.

    Exact: ``basis`` is the span's reduced echelon basis B, F the indices
    off its pivots and P = [B | e_F].  The diagonal blocks of P^-1 X P are
    (XB)[pivots] and X[F, F] - B[F] X[pivots, F], the block below them is
    (XB)[F] - B[F] (XB)[pivots], and no inverse is formed.  Approx: P is
    the unitary [orthonormal basis | orthonormal complement], and P^-1 X P
    is formed whole.
    """
    ctx = m.context
    n = m.dim
    if m.backend == EXACT:
        span = span_of(vectors, n, EXACT, ctx)
        basis = span.basis()
        pivots = span.pivots()
        pivot_set = set(pivots)
        free = [i for i in range(n) if i not in pivot_set]
        cols = range(len(pivots))
        b = Matrix.from_columns(basis, EXACT) if basis else Matrix.zeros(n, 0, EXACT)
        b_free = b.submatrix(free, cols)

        def transported(x: Matrix, name: str) -> Matrix:
            xb = x @ b
            coords = xb.submatrix(pivots, cols)
            if free and xb.submatrix(free, cols) != b_free @ coords:
                raise NotStable(f"subspace is not invariant under {name}")
            if block == 0:
                return coords
            out = x.submatrix(free, free)
            # a Matrix with no rows has no columns either: skip the empty product
            return out - b_free @ x.submatrix(pivots, free) if pivots and free else out

        def lift(vector):
            out = [GR_ZERO] * n
            for i, c in zip(free, vector):
                out[i] = c
            return tuple(out)

    else:
        split = split_basis(vectors, n, m.backend, ctx)
        basis = list(split.basis)
        d = split.sub_dim
        lo, hi = ((0, d), (d, n))[block]
        complement = split.p.to_numpy()[:, d:]

        def transported(x: Matrix, name: str) -> Matrix:
            t = split.p_inv @ x @ split.p
            if not t.lower_blocks_negligible((0, d, n), 10.0, ctx, scale_with=(x,)):
                raise NotStable(f"subspace is not invariant under {name}")
            return t.diagonal_block(lo, hi)

        def lift(vector):
            return tuple((complement @ np.array(vector, dtype=complex)).tolist())

    gens = tuple(transported(g, "a generator image") for g in m.generators)
    delta = transported(m.delta, "delta")
    out = _trusted_model(gens, delta, m.resolvent_sample, m.label + label_suffix, ctx)
    return out, basis, lift


def restrict_model(m: AdmissibleModel, basis, label_suffix="|sub") -> AdmissibleModel:
    """Model induced on an invariant subspace, written in the basis the
    transport chooses (exact: the span's echelon basis); NotStable when the
    subspace is not invariant."""
    return _transported_model(m, basis, 0, label_suffix)[0]


def quotient_model(m: AdmissibleModel, basis, label_suffix="|quo"):
    """Quotient model by an invariant subspace, plus a lift of coordinates.

    Returns (model, lift) where lift maps quotient-coordinate vectors to
    ambient representatives (exact: it puts them at the non-pivot indices).
    """
    quotient, _, lift = _transported_model(m, basis, 1, label_suffix)
    return quotient, lift


def spin(seeds, mats, dim: int, backend: str, ctx: ToleranceContext = DEFAULT_CONTEXT) -> Span:
    """Smallest invariant subspace containing the seeds.

    Generator images are invertible, so closing under the forward images
    alone already closes under the generated group algebra.  One frontier
    loop maps each new direction exactly once: exact, the vectors that
    enlarged the echelon span; approx, the span's own new orthonormal
    block (block Krylov), never the raw spun vectors, whose closure does
    not bound the invariance defect when they are nearly parallel.
    """
    span = Span(dim, backend, ctx)
    if backend == APPROX:
        arrays = [m.to_numpy() for m in mats]
        new = span.add_block(np.array(seeds, dtype=complex).reshape(len(seeds), dim).T)
        while new.shape[1] and not span.is_full():
            new = span.add_block(np.hstack([a @ new for a in arrays]))
        return span
    new = [s for s in seeds if span.add(s)]
    while new and not span.is_full():
        new = [w for w in (m.apply(v) for v in new for m in mats) if span.add(w)]
    return span


# -- proper submodule search -------------------------------------------------

# the verdict of a stage that neither finds a submodule nor certifies simplicity
UNDECIDED = "undecided"


def _probe_matrices(m: AdmissibleModel, extended: bool):
    """One tier of the deterministic probe sequence inside the stabilising
    algebra, yielded lazily: the short tier (delta, g, g + g^-1), or the
    extended tier (products, combinations, delta g)."""
    gens = m.generators
    if not extended:
        yield m.delta
        yield from gens
        for g in gens:
            yield g + g.inverse(m.context)
        return
    k = len(gens)
    for i in range(k):
        for j in range(k):
            if i != j:
                yield gens[i] @ gens[j]
    for i in range(k):
        for j in range(i + 1, k):
            yield gens[i] + gens[j]
            yield gens[i] + gens[j].scale(GR_I)
            yield gens[i] + gens[j].scale(2)
    for g in gens:
        yield m.delta @ g


def _eigen_pairs_for_probe(t: Matrix, ctx: ToleranceContext, thorough: bool = False):
    """Probe eigenvalues with their algebraic multiplicities: cheap and
    possibly partial unless thorough.

    Probing only needs seeds, not a complete spectrum, so the default
    exact path returns the roots among a candidate list (the diagonal, then
    small Gaussian integers), in that order, from one integer scan of the
    characteristic polynomial (an order of magnitude cheaper than factoring
    it).  The thorough retry returns every root in the field, sorted, and
    the approx backend the clustered spectrum.
    """
    if t.backend == APPROX:
        return eigenvalues(t, ctx)
    coeffs = charpoly(t)
    diag = [t.entries[i][i] for i in range(t.rows)]
    if thorough:
        return gaussian_rational_roots(coeffs, diag)[0]
    return scan_roots(coeffs, root_candidates(diag))[0]


def find_proper_submodule(m: AdmissibleModel):
    """Basis of a proper nonzero invariant subspace, or None if certified simple.

    Runs the stages of the module docstring in order; each returns a
    witness basis, None (certified simple) or ``UNDECIDED``.  Raises
    IrreducibilityUndecided when every stage is inconclusive.
    """
    n = m.dim
    if n <= 1:
        return None
    ctx = m.context
    backend = m.backend
    gens = list(m.generators)
    gens_t = [g.transpose() for g in gens]
    ident = Matrix.identity(n, backend)
    reducible_unwitnessed = False

    def annihilator_witness(dual: Span):
        # the annihilator of a proper dual submodule is a proper submodule,
        # always on exact; on approx a defective dual basis can be too skew
        # numerically, so accept it only when re-spinning confirms
        # invariance at a proper dimension
        nonlocal reducible_unwitnessed
        ann = nullspace(Matrix([list(v) for v in dual.basis()], backend), ctx)
        if ann:
            closed = spin(ann, gens, n, backend, ctx)
            if 0 < closed.dim < n:
                return closed.basis()
        reducible_unwitnessed = True
        return None

    def norton(t: Matrix, lam, kernels, spun=None):
        """Conclusive test at a geometric-multiplicity-one eigenvalue; an
        inconclusive one leaves its kernel to the fallback spins.  ``spun``
        is the kernel of a simple eigenvalue, already spun to the whole
        space by ``generalized_seed_spins``."""
        kernel = nullspace(t - ident.scale(lam), ctx) if spun is None else spun
        if kernel:
            kernels.append((t, lam, kernel))
        if len(kernel) != 1:
            return UNDECIDED
        if spun is None:
            sub = spin(kernel, gens, n, backend, ctx)
            if not sub.is_full():
                return sub.basis()
        kernel_t = nullspace(t.transpose() - ident.scale(lam), ctx)
        if len(kernel_t) != 1:
            return UNDECIDED
        dual = spin(kernel_t, gens_t, n, backend, ctx)
        if dual.is_full():
            return None
        return annihilator_witness(dual) or UNDECIDED

    def generalized_seed_spins(t: Matrix, pairs, simple):
        # kernels of (t - lam)^p are far better conditioned than simple
        # kernels when the cluster is defective; their spin closures are
        # accurate submodule candidates.  A simple eigenvalue's space is
        # its kernel, kept in ``simple`` for Norton's test; on exact, a
        # multiplicity of n means the whole space
        for lam, mult in pairs:
            if mult == 1:
                space = simple[lam] = nullspace(t - ident.scale(lam), ctx)
            elif backend == EXACT and mult >= n:
                continue
            else:
                space = generalized_eigenspace(t, lam, alg_mult=mult, ctx=ctx).space_basis
            if not space or len(space) >= n:
                continue
            sub = spin(list(space), gens, n, backend, ctx)
            if 0 < sub.dim < n:
                return sub.basis()
        return None

    def probe_stage(extended: bool, thorough: bool):
        """One probe tier, then the fallback spins over its kernels."""
        kernels = []
        for t in _probe_matrices(m, extended):
            pairs = _eigen_pairs_for_probe(t, ctx, thorough)
            simple = {}
            witness = generalized_seed_spins(t, pairs, simple)
            if witness is not None:
                return witness
            for lam, _mult in pairs:
                verdict = norton(t, lam, kernels, simple.get(lam))
                if verdict != UNDECIDED:
                    return verdict
        for t, lam, kernel in kernels:
            for v in kernel:
                sub = spin([v], gens, n, backend, ctx)
                if not sub.is_full():
                    return sub.basis()
            for w in nullspace(t.transpose() - ident.scale(lam), ctx):
                dual = spin([w], gens_t, n, backend, ctx)
                if not dual.is_full():
                    witness = annihilator_witness(dual)
                    if witness is not None:
                        return witness
        return UNDECIDED

    verdict = probe_stage(extended=False, thorough=False)
    if verdict == UNDECIDED and backend == EXACT:
        # the structural backstop is cheaper than the long exact probe tail
        verdict = _structural_backstop(m)
    if verdict == UNDECIDED:
        verdict = probe_stage(extended=True, thorough=False)
    if verdict == UNDECIDED:
        if backend == EXACT:
            verdict = probe_stage(extended=False, thorough=True)
        elif not reducible_unwitnessed:
            verdict = _structural_backstop(m)
    if verdict == UNDECIDED:
        raise IrreducibilityUndecided(
            f"no conclusive probe for model {m.label!r} (dim {n}); "
            "supply a finer delta or run on the approx backend"
        )
    return verdict


def _algebra_closure(gens, dim: int, backend: str, ctx: ToleranceContext, cap: int = 4096):
    """Basis of the unital algebra generated by the generator images."""
    ident = Matrix.identity(dim, backend)
    span = Span(dim * dim, backend, ctx)
    basis = []
    frontier = []
    for mat in [ident]:
        flat = tuple(x for row in mat.entries for x in row)
        if span.add(flat):
            basis.append(mat)
            frontier.append(mat)
    while frontier:
        nxt = []
        for b in frontier:
            for g in gens:
                prod = b @ g
                flat = tuple(x for row in prod.entries for x in row)
                if span.add(flat):
                    basis.append(prod)
                    nxt.append(prod)
                    if len(basis) > cap:
                        raise SlowContraction("algebra closure exceeded cap")
        frontier = nxt
    return basis


def _radical_elements(algebra, backend: str, ctx: ToleranceContext):
    """Kernel of the trace form on the algebra (= radical in char 0)."""
    k = len(algebra)
    gram = [[None] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            # tr(AB) = tr(BA): each symmetric pair once
            gram[i][j] = gram[j][i] = algebra[i].trace_product(algebra[j])
    combos = nullspace(Matrix(gram, backend), ctx)
    out = []
    for combo in combos:
        elt = None
        for c, b in zip(combo, algebra):
            term = b.scale(c)
            elt = term if elt is None else elt + term
        if elt is not None and not elt.is_zero(ctx):
            out.append(elt)
    return out


def _is_scalar_matrix(c: Matrix, ctx: ToleranceContext) -> bool:
    n = c.rows
    mean = c.trace() / n
    return (c - Matrix.identity(n, c.backend).scale(mean)).is_zero(ctx)


def _poly_eval(coeffs, mat: Matrix) -> Matrix:
    out = Matrix.zeros(mat.rows, mat.cols, mat.backend)
    for c in coeffs:
        out = out @ mat + Matrix.identity(mat.rows, mat.backend).scale(c)
    return out


def _structural_backstop(m: AdmissibleModel):
    """Radical / commutant analysis.

    On exact each non-scalar commutant element c is read through its
    charpoly: for p its first factor, p(c) has a proper kernel, a
    submodule, unless p(c) = 0; then c generates a field, and a field that
    fills the commutant makes the (semisimple) module simple.

    Returns a submodule basis, None (certified simple), or ``UNDECIDED``.
    """
    n = m.dim
    ctx = m.context
    backend = m.backend
    algebra = _algebra_closure(m.generators, n, backend, ctx)
    radical = _radical_elements(algebra, backend, ctx)
    if radical:
        seeds = []
        for r in radical:
            seeds.extend(r.columns())
        span = span_of(seeds, n, backend, ctx)
        if 0 < span.dim < n:
            return span.basis()
    commutant = intertwiner_space(m.generators, m.generators, ctx)
    if len(commutant) == 1:
        return None  # commutant is the scalars: simple (algebra is semisimple here)
    for c in commutant:
        if _is_scalar_matrix(c, ctx):
            continue
        if backend == APPROX:
            clusters = eigenvalues(c, ctx)
            if len(clusters) >= 2:
                lam = clusters[0][0]
                data = generalized_eigenspace(c, lam, alg_mult=clusters[0][1], ctx=ctx)
                if 0 < data.dim < n:
                    return list(data.space_basis)
            nil = c - Matrix.identity(n, backend).scale(clusters[0][0])
            kernel = nullspace(nil, ctx)
            if 0 < len(kernel) < n:
                return kernel
            continue
        p = _minpoly_factors(charpoly(c))[0][2]
        split = _poly_eval(p, c)
        if not split.is_zero(ctx):
            # p divides the charpoly, so p(c) is singular: its kernel is proper
            return nullspace(split, ctx)
        # p(c) = 0: p is c's minimal polynomial and the charpoly's only
        # factor, so c generates a field; conclusive only if it fills the
        # commutant
        if len(p) - 1 == len(commutant):
            return None
    return UNDECIDED


def _minpoly_factors(coeffs):
    """Factor an exact characteristic polynomial over the Gaussian rationals.

    Returns a list of (degree, multiplicity, monic coefficient list),
    sorted by degree, then falling multiplicity, then coefficients, so the
    split the backstop takes does not depend on the factorizer's order.
    """
    out = [(len(fac) - 1, mult, fac) for fac, mult in factor_gaussian(coeffs)]
    out.sort(key=lambda item: (item[0], -item[1], [(c.re, c.im) for c in item[2]]))
    return out


def minimal_submodule(m: AdmissibleModel):
    """(basis, model) of an irreducible submodule of ``m``: its basis in the
    coordinates of ``m``, and the model it carries in that basis."""
    coords = None  # columns expressing the current space inside m
    current = m
    while True:
        sub = find_proper_submodule(current)
        if sub is None:
            break
        # compose with the basis the restriction is expressed in, which
        # need not be the witness basis itself
        current, basis, _ = _transported_model(current, sub, 0, "|sub")
        basis_mat = Matrix.from_columns(basis, m.backend)
        coords = basis_mat if coords is None else coords @ basis_mat
    if coords is None:
        return Matrix.identity(m.dim, m.backend).columns(), current
    return coords.columns(), current


# -- classes, series, multiplicities ----------------------------------------


@dataclass(frozen=True)
class PiClass:
    """Isomorphism class of a certified-irreducible model."""

    rep: AdmissibleModel
    canonical_key: tuple

    @property
    def dim(self) -> int:
        return self.rep.dim

    def key_string(self) -> str:
        return ";".join(str(part) for part in self.canonical_key)


def canonical_key(m: AdmissibleModel) -> tuple:
    """Continuous-equivalence invariants used as an isomorphism pre-filter:
    dimension plus the characteristic polynomial of every generator image.
    Computed once per model, which keeps it."""
    if m._canonical_key is None:
        object.__setattr__(m, "_canonical_key", _compute_canonical_key(m))
    return m._canonical_key


def _compute_canonical_key(m: AdmissibleModel) -> tuple:
    if m.backend == EXACT:
        parts = []
        for g in m.generators:
            parts.append("[" + ",".join(str(c) for c in charpoly(g)) + "]")
        return (m.dim, tuple(parts))
    parts = []
    for g in m.generators:
        coeffs = np.poly(g.to_numpy())
        parts.append(
            "["
            + ",".join(
                f"{c.real:.9g}{'+' if c.imag >= 0 else '-'}{abs(c.imag):.9g}j"
                for c in np.atleast_1d(coeffs)
            )
            + "]"
        )
    return (m.dim, tuple(parts))


def pi_class(m: AdmissibleModel) -> PiClass:
    """Certify irreducibility and wrap the model as a class representative."""
    witness = find_proper_submodule(m)
    if witness is not None:
        raise NonIrreduciblePi(
            f"model {m.label!r} has an invariant subspace of dim {len(witness)}"
        )
    return PiClass(m, canonical_key(m))


def _key_compatible(a: AdmissibleModel, b: AdmissibleModel) -> bool:
    if a.dim != b.dim or len(a.generators) != len(b.generators):
        return False
    if a.backend == EXACT:
        return canonical_key(a) == canonical_key(b)
    for ga, gb in zip(a.generators, b.generators):
        ca = np.poly(ga.to_numpy())
        cb = np.poly(gb.to_numpy())
        scale = max(1.0, float(np.max(np.abs(ca))), float(np.max(np.abs(cb))))
        if np.max(np.abs(ca - cb)) > 1e-6 * scale:
            return False
    return True


def is_isomorphic(a: AdmissibleModel, b: AdmissibleModel) -> bool:
    """Isomorphism of two certified-simple models.

    Both inputs must be simple: by Schur's lemma a nonzero intertwiner
    between simple modules is invertible, so the first basis intertwiner
    decides.  On non-simple inputs the answer means nothing.
    """
    if len(a.generators) != len(b.generators):
        raise ValueError("models have different numbers of generators")
    if not _key_compatible(a, b):
        return False
    ctx = a.context
    basis = intertwiner_space(list(a.generators), list(b.generators), ctx)
    return bool(basis) and basis[0].is_invertible(ctx)


@dataclass(frozen=True)
class Filtration:
    """Finite ascending chain of invariant subspaces.

    ``subspaces[i]`` is a basis of the i-th term (``subspaces[0]`` is
    empty, the last one spans everything); ``quotient_labels[i]`` is the
    class of ``F_{i+1}/F_i`` when known.
    """

    index_set: tuple
    subspaces: tuple
    quotient_labels: tuple = ()

    @property
    def length(self) -> int:
        return len(self.index_set) - 1


@dataclass(frozen=True)
class SeriesData:
    """Composition series with everything the trace identity needs."""

    filtration: Filtration
    factors: tuple
    classes: tuple
    class_of_factor: tuple
    basis_matrix: Matrix

    @property
    def length(self) -> int:
        return len(self.factors)


def composition_series_data(m: AdmissibleModel) -> SeriesData:
    """Full flag with certified irreducible quotients (deterministic).

    Each step takes an irreducible submodule of the current quotient as the
    next factor and passes to the quotient by it.  The quotients' lifts
    compose, so every flag vector is in the coordinates of ``m``.
    """
    flag = []
    snapshots = [tuple()]
    factors = []
    current, lift = m, (lambda v: v)
    while True:
        sub, factor = minimal_submodule(current)
        factors.append(factor)
        flag.extend(lift(u) for u in sub)
        snapshots.append(tuple(flag))
        if len(flag) == m.dim:
            break
        current, _, inner = _transported_model(current, sub, 1, "|quo")
        lift = lambda v, outer=lift, inner=inner: outer(inner(v))
    classes = []
    class_of_factor = []
    for f in factors:
        found = None
        for idx, cls in enumerate(classes):
            if is_isomorphic(cls.rep, f):
                found = idx
                break
        if found is None:
            classes.append(PiClass(f, canonical_key(f)))
            found = len(classes) - 1
        class_of_factor.append(found)
    labels = tuple(classes[idx] for idx in class_of_factor)
    filtration = Filtration(
        tuple(range(len(snapshots))), tuple(snapshots), labels
    )
    basis_matrix = Matrix.from_columns(flag, m.backend)
    return SeriesData(
        filtration, tuple(factors), tuple(classes), tuple(class_of_factor), basis_matrix
    )


def composition_series(m: AdmissibleModel) -> Filtration:
    return composition_series_data(m).filtration


@dataclass(frozen=True)
class MultiplicityTable:
    """Rows (class, Jordan-Hoelder count); dims weighted by counts sum to
    the ambient dimension."""

    entries: tuple
    ambient_dim: int

    def __post_init__(self):
        total = sum(cls.dim * count for cls, count in self.entries)
        if total != self.ambient_dim:
            raise TraceMismatch(
                f"multiplicity table covers dim {total} of {self.ambient_dim}"
            )


def multiplicity_table(m: AdmissibleModel, series: SeriesData | None = None) -> MultiplicityTable:
    series = series or composition_series_data(m)
    counts = [0] * len(series.classes)
    for idx in series.class_of_factor:
        counts[idx] += 1
    order = sorted(
        range(len(series.classes)),
        key=lambda i: (series.classes[i].dim, series.classes[i].canonical_key),
    )
    entries = tuple((series.classes[i], counts[i]) for i in order)
    return MultiplicityTable(entries, m.dim)


def multiplicity(m: AdmissibleModel, pi: PiClass) -> int:
    """Jordan-Hoelder count of the class ``pi`` among the composition factors."""
    witness = find_proper_submodule(pi.rep)
    if witness is not None:
        raise NonIrreduciblePi("pi is not irreducible")
    series = composition_series_data(m)
    return sum(1 for f in series.factors if is_isomorphic(f, pi.rep))


@dataclass(frozen=True)
class FiltrationSearch:
    length: int
    certified: bool
    trials: int


def _random_unimodular(dim: int, backend: str, rng: random.Random, ctx: ToleranceContext):
    """A random conjugator ``s`` and its inverse.

    Exact: ``s`` is a product of elementary row operations on the
    identity, so its inverse applies the opposite operations in reverse
    order and no elimination runs.  Approx: a random unitary, inverted by
    ``Matrix.inverse``.
    """
    if backend == EXACT:
        ops = []
        for _ in range(2 * dim):
            i = rng.randrange(dim)
            j = rng.randrange(dim)
            if i != j:
                ops.append((i, j, GaussianRational(rng.choice([-1, 1]), rng.choice([-1, 0, 1]))))
        s = _row_operations(dim, ops)
        s_inv = _row_operations(dim, [(i, j, -c) for i, j, c in reversed(ops)])
        return s, s_inv
    data = np.array(
        [[rng.gauss(0, 1) + 1j * rng.gauss(0, 1) for _ in range(dim)] for _ in range(dim)]
    )
    q, _ = np.linalg.qr(data)
    s = Matrix.from_numpy(q)
    return s, s.inverse(ctx)


def _row_operations(dim: int, ops) -> Matrix:
    """The identity after ``row i += c * row j`` for each ``(i, j, c)``."""
    rows = [list(row) for row in Matrix.identity(dim, EXACT).entries]
    for i, j, c in ops:
        rows[i] = [a + c * b if b else a for a, b in zip(rows[i], rows[j])]
    return Matrix(rows, EXACT)


def random_pi_filtration_length(
    m: AdmissibleModel, pi: PiClass, trials: int = 5, seed: int = 0
) -> FiltrationSearch:
    """Maximal pi-filtration length reached by randomized greedy growth.

    Each trial re-runs the deterministic series machinery in a random
    basis (a fresh conjugate of the model), which randomises every
    pivot/seed choice.  A trial is maximality-certified when its full
    series closes with every quotient certified irreducible; the lengths
    of certified trials must agree with the Jordan-Hoelder count.
    """
    best = 0
    certified = False
    for trial in range(trials):
        rng = random.Random(f"{seed}:{trial}")
        s, s_inv = _random_unimodular(m.dim, m.backend, rng, m.context)
        gens = tuple(s_inv @ g @ s for g in m.generators)
        delta = s_inv @ m.delta @ s
        # a conjugate keeps invertibility and the spectrum: trusted
        twisted = _trusted_model(
            gens, delta, m.resolvent_sample, m.label + f"|trial{trial}", m.context
        )
        try:
            series = composition_series_data(twisted)
            length = sum(1 for f in series.factors if is_isomorphic(f, pi.rep))
        except IrreducibilityUndecided:
            continue
        best = max(best, length)
        certified = True
    return FiltrationSearch(best, certified, trials)


# -- spectrum and projectors -------------------------------------------------


def spectrum(m: AdmissibleModel):
    """Complete generalized eigenspace decomposition of delta."""
    decomp = generalized_eigenspaces(m.delta, m.context)
    return [(d.eigenvalue, d) for d in decomp]


def _locate_spectral_value(decomp, sigma0, backend, ctx):
    if backend == EXACT:
        for d in decomp:
            if d.eigenvalue == sigma0:
                return d
        raise SigmaNotSpectral(f"{sigma0} is not a spectral value")
    scale = max([abs(d.eigenvalue) for d in decomp], default=1.0)
    radius = ctx.cluster_radius(scale)
    best = min(decomp, key=lambda d: abs(d.eigenvalue - complex(sigma0)))
    if abs(best.eigenvalue - complex(sigma0)) > radius:
        raise SigmaNotSpectral(f"{sigma0!r} is not a spectral value within tolerance")
    return best


def spectral_projection_direct(m: AdmissibleModel, sigma0) -> Matrix:
    """Idempotent onto the sigma0 generalized eigenspace along the others."""
    decomp = [d for _, d in spectrum(m)]
    target = _locate_spectral_value(decomp, sigma0, m.backend, m.context)
    columns = list(target.space_basis)
    for d in decomp:
        if d is not target:
            columns.extend(d.space_basis)
    e = Matrix.from_columns(columns, m.backend)
    e_inv = e.inverse(m.context)
    k = target.dim
    diag = Matrix.block_diag(
        [Matrix.identity(k, m.backend), Matrix.zeros(m.dim - k, m.dim - k, m.backend)]
    )
    return e @ diag @ e_inv


def spectral_projection_power_iteration(
    m: AdmissibleModel,
    sigma0,
    lam,
    n_max: int = 1 << 14,
    tol: float = 1e-10,
) -> Matrix:
    """Spectral projector via powers of T = (sigma0-lam)(delta-lam)^{-1}.

    T fixes the target generalized eigenspace up to a nilpotent
    correction and contracts everything else (the shift must be strictly
    closer to sigma0 than to any other spectral value).  Powers of T grow
    like binomials times powers of the nilpotent part; evaluating T at a
    ladder of exponents and eliminating the binomial terms exactly peels
    the corrections (top power of the nilpotent first, then downwards)
    and leaves the projector plus a geometrically small remainder.
    """
    if m.backend != APPROX:
        raise BackendMismatch("power iteration runs on the approx backend only")
    ctx = m.context
    clusters = eigenvalues(m.delta, ctx)
    scale = max([abs(c) for c, _ in clusters] + [1.0])
    radius = ctx.cluster_radius(scale)
    sigma0 = complex(sigma0)
    lam = complex(lam)
    target = min(clusters, key=lambda item: abs(item[0] - sigma0))
    if abs(target[0] - sigma0) > radius:
        raise SigmaNotSpectral(f"{sigma0!r} is not a spectral value within tolerance")
    sigma = target[0]
    big_n = target[1]
    others = [c for c, _ in clusters if c != sigma]
    d0 = abs(sigma - lam)
    if d0 <= radius:
        raise BadLambda("shift point sits on the spectrum")
    ratios = [d0 / abs(c - lam) for c in others]
    q = max(ratios, default=0.0)
    if q >= 1.0 - 1e-12:
        raise BadLambda(
            "shift point is not strictly closer to sigma0 than to the rest "
            f"of the spectrum (contraction {q:.6f})"
        )
    t = resolvent(m.delta, lam, ctx).scale(sigma - lam)
    n0 = 16
    prev = None
    best = None
    best_diff = math.inf
    while n0 * big_n <= n_max:
        powers = []
        base = t.power(n0)
        acc = base
        for _ in range(big_n):
            powers.append(acc)
            acc = acc @ base
        coeff = np.zeros((big_n, big_n))
        for j in range(big_n):
            mj = (j + 1) * n0
            for k in range(big_n):
                # comb(mj, k) / comb(n0, k) computed stably in floats
                val = 1.0
                for s in range(k):
                    val *= (mj - s) / (n0 - s)
                coeff[j, k] = val
        stack = np.stack([p.to_numpy().ravel() for p in powers])
        solved = np.linalg.solve(coeff, stack)
        estimate = Matrix.from_numpy(solved[0].reshape(m.dim, m.dim))
        if prev is not None:
            diff = float(np.max(np.abs(estimate.to_numpy() - prev.to_numpy())))
            if diff <= tol / 4.0:
                return estimate
            if diff < best_diff:
                best_diff = diff
                best = estimate
            elif diff > 2.0 * best_diff:
                # the remainder decays geometrically while the binomial
                # cancellation floor grows with the exponent; once past
                # the optimum window nothing improves any more
                if best_diff <= tol:
                    return best
                break
        prev = estimate
        n0 *= 2
    raise SlowContraction(
        f"projector estimates settled no better than {best_diff:.3e} "
        f"(target {tol:.1e}, n_max={n_max}, contraction factor {q:.6f})"
    )


# -- traces and sub-quotients -------------------------------------------------


def spectral_trace(m: AdmissibleModel, f_op: Matrix, series: SeriesData | None = None):
    """Multiplicity-weighted trace over the composition factors.

    Computes sum_pi N(pi) tr pi(f) from the series and asserts it equals
    the direct trace of ``f_op``; a disagreement is an internal
    inconsistency, reported as TraceMismatch.
    """
    if f_op.shape != (m.dim, m.dim):
        raise ValueError("operator shape mismatch")
    if f_op.backend != m.backend:
        raise BackendMismatch("operator and model on different backends")
    series = series or composition_series_data(m)
    p = series.basis_matrix
    t = p.inverse(m.context) @ f_op @ p
    sizes = [f.dim for f in series.factors]
    offsets = [0]
    for s in sizes:
        offsets.append(offsets[-1] + s)
    # block lower-triangular part must vanish: f_op preserves the flag
    if not t.lower_blocks_negligible(offsets, 100, m.context):
        raise NotStable("operator does not preserve the composition flag")
    block_traces = [t.diagonal_block(lo, hi).trace() for lo, hi in zip(offsets, offsets[1:])]
    per_class = {}
    for idx, tr in zip(series.class_of_factor, block_traces):
        per_class.setdefault(idx, []).append(tr)
    spectral_value = zero(m.backend)
    for idx, traces in per_class.items():
        representative = traces[0]
        if m.backend == EXACT:
            for other in traces[1:]:
                if other != representative:
                    raise TraceMismatch(
                        "isomorphic factors produced different operator traces"
                    )
        spectral_value = spectral_value + sum(traces[1:], representative)
    direct = f_op.trace()
    if m.backend == EXACT:
        if spectral_value != direct:
            raise TraceMismatch(
                f"spectral side {spectral_value} != direct trace {direct}"
            )
    else:
        slack = m.context.cluster_radius(abs(direct))
        if abs(spectral_value - direct) > slack:
            raise TraceMismatch(
                f"spectral side {spectral_value!r} deviates from direct trace "
                f"{direct!r} beyond {slack!r}"
            )
    return spectral_value


@dataclass(frozen=True)
class SubquotientSpectrumRow:
    eigenvalue: object
    dim_large: int
    dim_small: int
    dim_quotient: int

    @property
    def consistent(self) -> bool:
        return self.dim_quotient == self.dim_large - self.dim_small


@dataclass(frozen=True)
class SubquotientSpectrumReport:
    rows: tuple

    @property
    def passed(self) -> bool:
        return all(row.consistent for row in self.rows)


def subquotient_spectrum_check(
    m: AdmissibleModel, v0_basis, v1_basis
) -> SubquotientSpectrumReport:
    """Check dim S(delta, lam) = dim V1(delta, lam) - dim V0(delta, lam).

    V0 inside V1 must both be invariant; the quotient S = V1/V0 inherits
    delta, and each generalized eigenspace dimension must split additively.
    """
    ctx = m.context
    backend = m.backend
    large = span_of(v1_basis, m.dim, backend, ctx)
    small = span_of(v0_basis, m.dim, backend, ctx) if v0_basis else None
    if small is not None:
        for v in small.basis():
            if not large.contains(v):
                raise NotStable("V0 is not contained in V1")
    if large.is_full():
        model_large, large_basis = m, Matrix.identity(m.dim, backend).columns()
    else:
        model_large, large_basis, _ = _transported_model(m, large.basis(), 0, "|V1")
    # express V0 in the coordinates of the basis model_large is written in:
    # exact, an echelon basis, where v has coordinates v[pivots]; approx,
    # an orthonormal one, where they are Q^H v
    if small is None or small.dim == 0:
        small_in_coords = []
    elif backend == EXACT:
        pivots = large.pivots()
        small_in_coords = [tuple(v[p] for p in pivots) for v in small.basis()]
    else:
        q_h = np.array(large_basis, dtype=complex).conj()
        small_in_coords = [tuple((q_h @ np.array(v)).tolist()) for v in small.basis()]
    if small_in_coords:
        model_small = restrict_model(model_large, small_in_coords, "|V0")
        if len(small_in_coords) == model_large.dim:
            quotient = None
        else:
            quotient, _ = quotient_model(model_large, small_in_coords, "|S")
    else:
        model_small = None
        quotient = model_large
    dec_large = generalized_eigenspaces(model_large.delta, ctx)
    dec_small = (
        generalized_eigenspaces(model_small.delta, ctx) if model_small else []
    )
    dec_quot = (
        generalized_eigenspaces(quotient.delta, ctx)
        if quotient is not None and quotient.dim > 0
        else []
    )
    rows = _match_eigen_dims(dec_large, dec_small, dec_quot, backend, ctx)
    return SubquotientSpectrumReport(tuple(rows))


def _match_eigen_dims(dec_large, dec_small, dec_quot, backend, ctx):
    rows = []
    if backend == EXACT:
        keys = []
        for d in dec_large + dec_small + dec_quot:
            if d.eigenvalue not in keys:
                keys.append(d.eigenvalue)
        keys.sort(key=lambda z: (z.re, z.im))
        for lam in keys:
            dl = next((d.dim for d in dec_large if d.eigenvalue == lam), 0)
            ds = next((d.dim for d in dec_small if d.eigenvalue == lam), 0)
            dq = next((d.dim for d in dec_quot if d.eigenvalue == lam), 0)
            rows.append(SubquotientSpectrumRow(lam, dl, ds, dq))
        return rows
    centers = [d.eigenvalue for d in dec_large + dec_small + dec_quot]
    scale = max([abs(c) for c in centers], default=1.0)
    radius = ctx.cluster_radius(scale)
    merged = []
    for c in sorted(centers, key=lambda z: (z.real, z.imag)):
        if not merged or abs(c - merged[-1]) > radius:
            merged.append(c)
    for lam in merged:
        dl = sum(d.dim for d in dec_large if abs(d.eigenvalue - lam) <= radius)
        ds = sum(d.dim for d in dec_small if abs(d.eigenvalue - lam) <= radius)
        dq = sum(d.dim for d in dec_quot if abs(d.eigenvalue - lam) <= radius)
        rows.append(SubquotientSpectrumRow(lam, dl, ds, dq))
    return rows
