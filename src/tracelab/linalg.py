"""Dense linear algebra over the two scalar backends.

Everything downstream (spectra, filtrations, induced operators, mode
models) reduces to the handful of primitives in this module: echelon
spans, nullspaces, generalized eigenspaces, resolvents and intertwiner
spaces.  Exact kernels (products, elimination) work on integer
numerators over one common denominator per row or column, with a single
gcd reduction per result entry or row update; approx matrices delegate
rank decisions to singular values measured against the ambient tolerance
context.

Conventions: vectors are columns (tuples of scalars), matrices act on the
left, and a subspace is handed around as a list of basis vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

import numpy as np

from .errors import (
    BackendMismatch,
    ExactEigenvalueNotInField,
    NonConvergence,
    NotStable,
    SizeLimit,
    SpectralPole,
)
from .scalars import (
    APPROX,
    DEFAULT_CONTEXT,
    EXACT,
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    ToleranceContext,
    backend_of,
    coerce,
    one,
    same_backend,
    zero,
)
from .zfactor import factor_list, is_squarefree

MAX_EIGEN_DIM = 2000


# -- the exact integer kernel -------------------------------------------------
#
# A vector of Gaussian rationals travels as a numerator triple built from
# the scalars' own reduced integer triples (``_a``, ``_b``, ``_d``).


def _numerators(vec):
    """Gaussian rationals as ``(re numerators, im numerators, d)``: entry k
    is ``(re[k] + im[k] i) / d``, with ``d`` the lcm of the denominators."""
    d = math.lcm(*[x._d for x in vec])
    if d == 1:
        return [x._a for x in vec], [x._b for x in vec], 1
    return [x._a * (d // x._d) for x in vec], [x._b * (d // x._d) for x in vec], d


def _dot(r, c):
    """Sum of ``r[k] * c[k]`` over two numerator triples: one reduction.
    Products with an all-zero imaginary side are skipped."""
    ra, rb, rd = r
    ca, cb, cd = c
    re = sum(map(mul, ra, ca))
    im = sum(map(mul, ra, cb)) if any(cb) else 0
    if any(rb):
        re -= sum(map(mul, rb, cb))
        im += sum(map(mul, rb, ca))
    return GaussianRational._raw(re, im, rd * cd)


def _entries(t):
    """A numerator triple back as a tuple of Gaussian rationals."""
    d = t[2]
    return tuple(GaussianRational._raw(x, y, d) for x, y in zip(t[0], t[1]))


def _nonzero_at(t, k) -> bool:
    return bool(t[0][k] or t[1][k])


def _reduced(a, b, d):
    """A numerator triple divided by its content (gcd of every part)."""
    g = math.gcd(*a, *b, d)
    if g == 1:
        return a, b, d
    return [x // g for x in a], [x // g for x in b], d // g


def _normalized(t, c):
    """Triple ``t`` divided by its nonzero entry ``c``: ``(a + b i) / d``
    over ``(pa + pb i) / d`` is ``(a + b i)(pa - pb i) / (pa^2 + pb^2)``."""
    a, b, _ = t
    pa, pb = a[c], b[c]
    return _reduced(
        [x * pa + y * pb for x, y in zip(a, b)],
        [y * pa - x * pb for x, y in zip(a, b)],
        pa * pa + pb * pb,
    )


def _eliminated(t, row, c):
    """``t - t[c] * row`` for a ``row`` normalized at ``c``, over the
    denominator ``d * rd`` and reduced by its content once."""
    a, b, d = t
    ra, rb, rd = row
    fa, fb = a[c], b[c]
    return _reduced(
        [x * rd - fa * y + fb * z for x, y, z in zip(a, ra, rb)],
        [x * rd - fa * z - fb * y for x, y, z in zip(b, ra, rb)],
        d * rd,
    )


class Matrix:
    """Immutable dense matrix over one scalar backend.

    Exact entries are tuples of :class:`GaussianRational` rows; approx
    entries are one read-only ``(rows, cols)`` complex ndarray.  Scalars an
    approx matrix hands back (traces, determinants, vector entries) are
    Python ``complex``.
    """

    __slots__ = ("rows", "cols", "backend", "entries")

    def __init__(self, entries, backend=None):
        rows = len(entries)
        cols = len(entries[0]) if rows else 0
        for row in entries:
            if len(row) != cols:
                raise ValueError("ragged matrix")
        if backend is None:
            backend = backend_of(entries[0][0]) if rows and cols else EXACT
        if backend == APPROX:
            data = np.array(entries, dtype=complex).reshape(rows, cols)
            data.flags.writeable = False
        else:
            data = tuple(map(tuple, entries))
            for row in data:
                for x in row:
                    if not isinstance(x, GaussianRational):
                        raise BackendMismatch(
                            f"exact matrix entry is not a Gaussian rational: {x!r}"
                        )
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "backend", backend)
        object.__setattr__(self, "entries", data)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def identity(n: int, backend: str) -> "Matrix":
        on, off = one(backend), zero(backend)
        return Matrix([[on if i == j else off for j in range(n)] for i in range(n)], backend)

    @staticmethod
    def zeros(rows: int, cols: int, backend: str) -> "Matrix":
        return Matrix([[zero(backend)] * cols for _ in range(rows)], backend)

    @staticmethod
    def from_columns(columns, backend=None) -> "Matrix":
        cols = len(columns)
        rows = len(columns[0])
        return Matrix(
            [[columns[j][i] for j in range(cols)] for i in range(rows)], backend
        )

    @staticmethod
    def block_diag(blocks) -> "Matrix":
        backend = same_backend(*[b.backend for b in blocks])
        n = sum(b.rows for b in blocks)
        off = zero(backend)
        grid = []
        at = 0
        for b in blocks:
            for row in b.entries:
                grid.append([off] * at + list(row) + [off] * (n - at - b.cols))
            at += b.rows
        return Matrix(grid, backend)

    @staticmethod
    def from_numpy(array) -> "Matrix":
        return Matrix(array, APPROX)

    # -- basic algebra -----------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_shape(other)
        if self.backend == APPROX:
            return Matrix(self.entries + other.entries, APPROX)
        return Matrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ],
            EXACT,
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_shape(other)
        if self.backend == APPROX:
            return Matrix(self.entries - other.entries, APPROX)
        return Matrix(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ],
            EXACT,
        )

    def __neg__(self) -> "Matrix":
        if self.backend == APPROX:
            return Matrix(-self.entries, APPROX)
        return Matrix([[-a for a in row] for row in self.entries], EXACT)

    def scale(self, scalar) -> "Matrix":
        scalar = coerce(scalar, self.backend)
        if self.backend == APPROX:
            return Matrix(scalar * self.entries, APPROX)
        return Matrix([[scalar * a for a in row] for row in self.entries], EXACT)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        same_backend(self.backend, other.backend)
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        if self.backend == APPROX:
            return Matrix(self.entries @ other.entries, APPROX)
        cols = [_numerators(col) for col in zip(*other.entries)]
        return Matrix(
            [[_dot(row, col) for col in cols] for row in map(_numerators, self.entries)],
            EXACT,
        )

    def apply(self, vector):
        """Matrix-vector product (vector as a tuple of scalars); exact only,
        approx callers multiply ndarrays from :meth:`to_numpy`."""
        if self.backend != EXACT:
            raise BackendMismatch("apply is an exact-backend primitive")
        if len(vector) != self.cols:
            raise ValueError("vector length mismatch")
        vec = _numerators(vector)
        return tuple(_dot(row, vec) for row in map(_numerators, self.entries))

    def trace_product(self, other: "Matrix"):
        """``tr(self @ other)``.  Exact: the sum of ``self[p][q] * other[q][p]``,
        O(n^2) with one reduction.  Approx: the trace of the float product."""
        same_backend(self.backend, other.backend)
        if (self.cols, self.rows) != other.shape:
            raise ValueError(f"shape mismatch tr({self.shape} @ {other.shape})")
        if self.backend == APPROX:
            return (self @ other).trace()
        return _dot(
            _numerators([x for row in self.entries for x in row]),
            _numerators([x for col in zip(*other.entries) for x in col]),
        )

    def power(self, k: int) -> "Matrix":
        if self.rows != self.cols:
            raise ValueError("power of a non-square matrix")
        if k < 0:
            return self.inverse().power(-k)
        result = Matrix.identity(self.rows, self.backend)
        base = self
        while k:
            if k & 1:
                result = result @ base
            base = base @ base if k > 1 else base
            k >>= 1
        return result

    def transpose(self) -> "Matrix":
        if self.backend == APPROX:
            return Matrix(self.entries.T, APPROX)
        return Matrix(list(zip(*self.entries)), EXACT)

    def trace(self):
        if self.backend == APPROX:
            return complex(np.trace(self.entries))
        return sum((self.entries[i][i] for i in range(self.rows)), GR_ZERO)

    def diagonal_block(self, lo: int, hi: int) -> "Matrix":
        """The square block of rows and columns ``lo..hi``."""
        return Matrix([row[lo:hi] for row in self.entries[lo:hi]], self.backend)

    def submatrix(self, rows, cols) -> "Matrix":
        """The entries at the given row and column indices, in that order."""
        if self.backend == APPROX:
            return Matrix(self.entries[np.ix_(rows, cols)], APPROX)
        return Matrix([[self.entries[i][j] for j in cols] for i in rows], EXACT)

    @property
    def shape(self):
        return (self.rows, self.cols)

    def _check_shape(self, other: "Matrix"):
        same_backend(self.backend, other.backend)
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.backend != other.backend or self.shape != other.shape:
            return False
        if self.backend == APPROX:
            return bool(np.array_equal(self.entries, other.entries))
        return self.entries == other.entries

    def __hash__(self):
        if self.backend == APPROX:
            # adding 0.0 turns -0.0 into 0.0, which compares equal to it
            return hash((APPROX, self.shape, (self.entries + 0.0).tobytes()))
        return hash((self.backend, self.entries))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, {self.backend})"

    # -- analysis helpers --------------------------------------------------

    def to_numpy(self):
        """Approx: the stored read-only array.  Exact: a new float array."""
        if self.backend == APPROX:
            return self.entries
        return np.array(
            [[x.to_complex() for x in row] for row in self.entries], dtype=complex
        ).reshape(self.rows, self.cols)

    def to_approx(self) -> "Matrix":
        if self.backend == APPROX:
            return self
        return Matrix(self.to_numpy(), APPROX)

    def scale_bound(self) -> float:
        """Max-entry magnitude, used to make approx thresholds scale-aware."""
        if self.backend == APPROX:
            return float(np.abs(self.entries).max(initial=0.0))
        return max(
            (math.sqrt(float(x.norm())) for row in self.entries for x in row),
            default=0.0,
        )

    def is_zero(self, ctx: ToleranceContext = DEFAULT_CONTEXT) -> bool:
        if self.backend == EXACT:
            return all(not x for row in self.entries for x in row)
        return bool(np.all(np.abs(self.entries) <= ctx.zero_threshold()))

    def columns(self):
        if self.backend == APPROX:
            return [tuple(col) for col in self.entries.T.tolist()]
        return [tuple(row[j] for row in self.entries) for j in range(self.cols)]

    def det(self, ctx: ToleranceContext = DEFAULT_CONTEXT):
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        if self.backend == APPROX:
            return complex(np.linalg.det(self.entries))
        _, pivots, det = _rref(self.entries)
        return det if len(pivots) == self.rows else GR_ZERO

    def inverse(self, ctx: ToleranceContext = DEFAULT_CONTEXT) -> "Matrix":
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        if self.backend == APPROX:
            if not self.is_invertible(ctx):
                raise SpectralPole("matrix is singular within tolerance")
            return Matrix(np.linalg.inv(self.entries), APPROX)
        sol = solve_exact(self, Matrix.identity(self.rows, EXACT))
        if sol is None:
            raise SpectralPole("matrix is exactly singular")
        return sol

    def is_invertible(self, ctx: ToleranceContext = DEFAULT_CONTEXT) -> bool:
        """Exact: nonzero determinant.  Approx: the smallest singular value
        clears the tolerance relative to the largest.  A non-square matrix
        is never invertible."""
        if self.rows != self.cols:
            return False
        if self.backend == EXACT:
            return bool(self.det())
        sv = np.linalg.svd(self.entries, compute_uv=False)
        return bool(sv[-1] > ctx.zero_threshold(sv[0]))

    def agrees_with(self, other: "Matrix", ctx: ToleranceContext = DEFAULT_CONTEXT) -> bool:
        """Exact: equality.  Approx: every entry within the cluster radius
        at the larger entry scale of the two matrices."""
        self._check_shape(other)
        if self.backend == EXACT:
            return self == other
        scale = max(self.scale_bound(), other.scale_bound(), 1.0)
        return bool(np.all(np.abs(self.entries - other.entries) <= ctx.cluster_radius(scale)))

    def lower_blocks_negligible(self, offsets, factor, ctx: ToleranceContext = DEFAULT_CONTEXT, scale_with=()) -> bool:
        """Whether the blocks below the diagonal vanish.

        ``offsets`` cut the rows and columns into diagonal blocks (first 0,
        last the size).  Exact: every entry below them is zero.  Approx:
        none exceeds ``factor`` zero thresholds at the entry scale of this
        matrix and of ``scale_with``.
        """
        cuts = list(zip(offsets, offsets[1:]))
        if self.backend == EXACT:
            return not any(
                self.entries[i][j]
                for lo, hi in cuts
                for i in range(hi, self.rows)
                for j in range(lo, hi)
            )
        scale = max(self.scale_bound(), *(m.scale_bound() for m in scale_with), 1.0)
        worst = max(
            (np.abs(self.entries[hi:, lo:hi]).max(initial=0.0) for lo, hi in cuts),
            default=0.0,
        )
        return bool(worst <= ctx.zero_threshold(scale) * factor)


class Span:
    """Growable subspace with membership tests.

    Exact backend: rows kept in reduced echelon form, so membership is an
    exact reduction.  Approx backend: an orthonormal ``(n, k)`` ndarray
    grown a block at a time by classical Gram-Schmidt run twice; the rank
    of a block is decided by one SVD at ``eps`` (see ``add_block``).
    """

    def __init__(self, dim: int, backend: str, ctx: ToleranceContext = DEFAULT_CONTEXT):
        self.ambient_dim = dim
        self.backend = backend
        self.ctx = ctx
        self._rows = []  # exact: (pivot index, numerator triple), kept reduced
        self._q = np.zeros((dim, 0), dtype=complex)  # approx: orthonormal columns

    @property
    def dim(self) -> int:
        return len(self._rows) if self.backend == EXACT else self._q.shape[1]

    def basis(self):
        if self.backend == EXACT:
            return [_entries(row) for _, row in self._rows]
        return [tuple(col) for col in self._q.T.tolist()]

    def pivots(self):
        """Exact: the pivot index of each basis vector, increasing.  Basis
        vector k is 1 at pivot k and 0 at every other pivot."""
        return [p for p, _ in self._rows]

    def _reduce_exact(self, vector):
        """Exact: ``vector`` as a numerator triple, reduced by the rows."""
        v = _numerators(vector)
        for pivot, row in self._rows:
            if _nonzero_at(v, pivot):
                v = _eliminated(v, row, pivot)
        return v

    def _residual(self, w):
        """Approx: ``w`` (a vector or a block of columns) minus its
        projection onto the span, by two passes of classical Gram-Schmidt."""
        q = self._q
        for _ in range(2):
            w = w - q @ (q.conj().T @ w)
        return w

    def add_block(self, block):
        """Approx: add the columns of ``block`` (an ``(n, m)`` array); returns
        the new orthonormal columns, an ``(n, r)`` array.

        Columns of norm at most the zero threshold are dropped and the rest
        scaled to unit norm, so a column of norm at least 1 is dependent
        exactly when its residual is below ``eps`` relative to its norm.  The
        rank of the residual block is the number of its singular values
        above the zero threshold.  A block of full rank is appended as its
        polar factor, the nearest orthonormal block, so an orthonormal block
        orthogonal to the span comes back as itself; a rank-deficient one as
        its leading left singular vectors.
        """
        w = np.asarray(block, dtype=complex)
        norms = np.linalg.norm(w, axis=0)
        keep = norms > self.ctx.zero_threshold(1)
        w = self._residual(w[:, keep] / norms[keep])
        u, sv, vh = np.linalg.svd(w, full_matrices=False)
        rank = int(np.sum(sv > self.ctx.zero_threshold(1)))
        new = u @ vh if rank == len(sv) else u[:, :rank]
        self._q = np.hstack([self._q, new])
        return new

    def add(self, vector) -> bool:
        """Insert a vector; returns True when it enlarged the span."""
        if self.backend == EXACT:
            v = self._reduce_exact(vector)
            pivot = next((i for i in range(len(v[0])) if _nonzero_at(v, i)), None)
            if pivot is None:
                return False
            v = _normalized(v, pivot)
            # keep earlier rows reduced against the new pivot
            updated = []
            for p, row in self._rows:
                if _nonzero_at(row, pivot):
                    row = _eliminated(row, v, pivot)
                updated.append((p, row))
            updated.append((pivot, v))
            updated.sort(key=lambda item: item[0])
            self._rows = updated
            return True
        return self.add_block(np.array(vector, dtype=complex)[:, None]).shape[1] > 0

    def contains(self, vector) -> bool:
        if self.backend == EXACT:
            a, b, _ = self._reduce_exact(vector)
            return not (any(a) or any(b))
        v = np.array(vector, dtype=complex)
        norm0 = np.linalg.norm(v)
        if self.ctx.is_zero(norm0):
            return True
        return self.ctx.is_zero(np.linalg.norm(self._residual(v)), norm0)

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def extend_to_full(self):
        """Approx: complete the span by its orthonormal complement, columns
        ``k..n`` of the Q factor of ``[q | I]``, and return it; a
        near-parallel complement would amplify round-off into stability
        defects.  Exact spans need none: the unit vectors off the pivots
        complete an echelon basis."""
        if self.backend != APPROX:
            raise BackendMismatch("extend_to_full is an approx-backend primitive")
        q, _ = np.linalg.qr(np.hstack([self._q, np.eye(self.ambient_dim)]))
        new = self.add_block(q[:, self.dim :])
        if not self.is_full():
            raise NotStable("cannot extend basis to the full space")
        return [tuple(col) for col in new.T.tolist()]


def span_of(vectors, dim: int, backend: str, ctx: ToleranceContext = DEFAULT_CONTEXT) -> Span:
    """The span of ``vectors``; on approx they are added as one block."""
    span = Span(dim, backend, ctx)
    if backend == APPROX:
        span.add_block(np.array(vectors, dtype=complex).reshape(len(vectors), dim).T)
        return span
    for v in vectors:
        span.add(v)
    return span


# -- exact elimination ------------------------------------------------------


def _rref(rows):
    """Reduced row echelon form over the exact backend.

    Returns (rref rows, pivot column indices, determinant); the
    determinant is meaningful when the rows are square and of full rank.
    Each row is kept as one numerator triple; input rows untouched.
    """
    mat = [_numerators(r) for r in rows]
    n_rows = len(mat)
    n_cols = len(rows[0]) if mat else 0
    pivots = []
    det = GR_ONE
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if _nonzero_at(mat[i], c)), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
            det = -det
        a, b, d = mat[r]
        det = det * GaussianRational._raw(a[c], b[c], d)
        mat[r] = _normalized(mat[r], c)
        for i in range(n_rows):
            if i != r and _nonzero_at(mat[i], c):
                mat[i] = _eliminated(mat[i], mat[r], c)
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return [_entries(t) for t in mat[:r]], pivots, det


def solve_exact(m: Matrix, rhs: Matrix):
    """Solve ``m @ X = rhs`` exactly; None when ``m`` is singular."""
    n = m.rows
    aug = [list(m.entries[i]) + list(rhs.entries[i]) for i in range(n)]
    red, pivots, _ = _rref(aug)
    if pivots != list(range(n)):
        return None
    sol = [row[n:] for row in red]
    return Matrix(sol, EXACT)


def nullspace(m: Matrix, ctx: ToleranceContext = DEFAULT_CONTEXT):
    """Basis of the kernel of ``m``.

    Exact: canonical free-column basis from the reduced echelon form.
    Approx: right singular vectors whose singular values fall below the
    tolerance relative to the largest one.
    """
    if m.backend == EXACT:
        red, pivots, _ = _rref(m.entries)
        pivot_set = set(pivots)
        free = [c for c in range(m.cols) if c not in pivot_set]
        basis = []
        for f in free:
            v = [GR_ZERO] * m.cols
            v[f] = GR_ONE
            for row_idx, p in enumerate(pivots):
                v[p] = -red[row_idx][f]
            basis.append(tuple(v))
        return basis
    if m.cols == 0:
        return []
    if m.rows == 0:
        return Matrix.identity(m.cols, APPROX).columns()
    _, sv, vh = np.linalg.svd(m.entries)
    scale = sv[0] if len(sv) else 1.0
    rank = int(np.sum(sv > ctx.zero_threshold(scale)))
    return [tuple(v) for v in vh[rank:].conj().tolist()]


def rank(m: Matrix, ctx: ToleranceContext = DEFAULT_CONTEXT) -> int:
    if m.backend == EXACT:
        _, pivots, _ = _rref(m.entries)
        return len(pivots)
    sv = np.linalg.svd(m.entries, compute_uv=False)
    if len(sv) == 0:
        return 0
    return int(np.sum(sv > ctx.zero_threshold(sv[0])))


def resolvent(m: Matrix, lam, ctx: ToleranceContext = DEFAULT_CONTEXT) -> Matrix:
    """Inverse of ``m - lam*I``; raises SpectralPole at (near-)eigenvalues."""
    if m.rows != m.cols:
        raise ValueError("resolvent of a non-square matrix")
    shifted = m - Matrix.identity(m.rows, m.backend).scale(lam)
    try:
        return shifted.inverse(ctx)
    except SpectralPole as exc:
        raise SpectralPole(f"{lam!r} is a spectral value within tolerance") from exc


# -- characteristic polynomial and eigenvalues ------------------------------


def charpoly(m: Matrix):
    """Monic characteristic polynomial coefficients, highest power first.

    Exact backend only.  Faddeev-LeVerrier runs on the Gaussian-integer
    matrix M = d A, d the common denominator of the entries, as (re, im)
    lists of Python ints: B_1 = M, c_k = -tr(B_k) / k and
    B_(k+1) = M (B_k + c_k I).  The c_k are the Gaussian-integer
    coefficients of M's charpoly, so each division by k is exact, and those
    of A are c_k / d^k.  Of B_n only the trace is formed.
    """
    if m.backend != EXACT:
        raise BackendMismatch("charpoly is an exact-backend primitive")
    n = m.rows
    re, im, d = _numerators([x for row in m.entries for x in row])
    real = not any(im)
    rows_re = [re[i * n:(i + 1) * n] for i in range(n)]
    rows_im = [im[i * n:(i + 1) * n] for i in range(n)]

    def times(col):
        """M times one column, as [re list, im list]."""
        c, e = col
        if real:
            return [[sum(map(mul, r, c)) for r in rows_re], e]
        return [
            [sum(map(mul, r, c)) - sum(map(mul, s, e)) for r, s in zip(rows_re, rows_im)],
            [sum(map(mul, r, e)) + sum(map(mul, s, c)) for r, s in zip(rows_re, rows_im)],
        ]

    # B_1 = M, by columns
    cols = [[re[j::n], im[j::n]] for j in range(n)]
    tr_re, tr_im = sum(re[:: n + 1]), sum(im[:: n + 1])
    coeffs = [GR_ONE]
    for k in range(1, n + 1):
        c_re, c_im = -(tr_re // k), -(tr_im // k)
        coeffs.append(GaussianRational._raw(c_re, c_im, d**k))
        if k == n:
            break
        for j, (col_re, col_im) in enumerate(cols):
            col_re[j] += c_re
            col_im[j] += c_im
        if k + 1 < n:
            cols = [times(col) for col in cols]
            tr_re = sum(col[0][j] for j, col in enumerate(cols))
            tr_im = sum(col[1][j] for j, col in enumerate(cols))
        else:
            # of B_n only the diagonal is formed
            tr_re = tr_im = 0
            for r, s, (c, e) in zip(rows_re, rows_im, cols):
                tr_re += sum(map(mul, r, c)) - sum(map(mul, s, e))
                tr_im += sum(map(mul, r, e)) + sum(map(mul, s, c))
    return coeffs


# -- factoring over Q(i) ------------------------------------------------------
#
# A polynomial is a list of Gaussian rationals, highest power first, with a
# nonzero leading coefficient; ``[]`` is zero.  Factoring follows Trager's
# norm method (Trager 1976; Cohen, GTM 138, 3.6): a squarefree p over Q(i)
# is split by the factors over Z of the norm p(x - s i) * conj(p)(x + s i),
# which ``zfactor`` finds with Zassenhaus's algorithm.


def _stripped(p):
    k = 0
    while k < len(p) and not p[k]:
        k += 1
    return p[k:]


def _monic(p):
    lead = p[0]
    return p if lead == GR_ONE else [c / lead for c in p]


def _poly_sub(a, b):
    n = max(len(a), len(b))
    a = [GR_ZERO] * (n - len(a)) + a
    b = [GR_ZERO] * (n - len(b)) + b
    return _stripped([x - y for x, y in zip(a, b)])


def _poly_mul(a, b):
    out = [GR_ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def _poly_divmod(a, b):
    """Quotient and remainder of ``a`` by a nonzero ``b``."""
    rem = list(a)
    lead, db = b[0], len(b) - 1
    quot = []
    for k in range(len(rem) - db):
        q = rem[k] / lead
        quot.append(q)
        if q:
            for j in range(1, db + 1):
                rem[k + j] = rem[k + j] - q * b[j]
    return quot, _stripped(rem[len(quot):])


def _poly_gcd(a, b):
    """Monic gcd by Euclid's algorithm, each remainder made monic."""
    while b:
        a, b = b, _poly_divmod(a, b)[1]
        if b:
            b = _monic(b)
    return _monic(a)


def _poly_derivative(p):
    n = len(p) - 1
    return [c * (n - k) for k, c in enumerate(p[:-1])]


def _poly_shift(p, c):
    """``p(x + c)`` by Horner's rule."""
    out = []
    for coef in p:
        out = [x + c * y for x, y in zip(out + [coef], [GR_ZERO] + out)]
    return out


def _squarefree_parts(f):
    """Yun's algorithm: monic ``f`` as ``(part, multiplicity)`` pairs, the
    parts squarefree, pairwise coprime and nonconstant."""
    df = _poly_derivative(f)
    a = _poly_gcd(f, df)
    b = _poly_divmod(f, a)[0]
    d = _poly_sub(_poly_divmod(df, a)[0], _poly_derivative(b))
    out = []
    mult = 1
    while len(b) > 1:
        a = _poly_gcd(b, d)
        b = _poly_divmod(b, a)[0]
        d = _poly_sub(_poly_divmod(d, a)[0], _poly_derivative(b))
        if len(a) > 1:
            out.append((a, mult))
        mult += 1
    return out


def _irreducible_factors(p):
    """Monic irreducible factors over Q(i) of a monic squarefree ``p``."""
    if len(p) <= 2:
        return [p]
    s = 0
    while True:
        # the norm of p(x - s i) has rational coefficients
        q = _poly_shift(p, GaussianRational(0, -s))
        norm = _numerators(_poly_mul(q, [c.conjugate() for c in q]))[0]
        if is_squarefree(norm):
            break
        s += 1
    factors = factor_list(norm)[1]
    if len(factors) == 1:
        return [p]
    shift = GaussianRational(0, s)
    return [
        _poly_gcd(p, _poly_shift([GaussianRational(c) for c in g], shift))
        for g, _ in factors
    ]


def factor_gaussian(coeffs):
    """Factor a polynomial (highest power first) over Q(i).

    Returns (monic factor coefficients, multiplicity) pairs: Yun's
    squarefree parts, each split by Trager's norm with one integer
    ``zfactor.factor_list`` call (none for a linear part).
    """
    return [
        (factor, mult)
        for part, mult in _squarefree_parts(_monic(list(coeffs)))
        for factor in _irreducible_factors(part)
    ]


# candidate roots worth a cheap exact evaluation before full factoring
_FAST_ROOT_CANDIDATES = [
    GaussianRational(v_re, v_im)
    for v_re, v_im in [
        (0, 0), (1, 0), (-1, 0), (2, 0), (-2, 0), (0, 1), (0, -1),
        (1, 1), (1, -1), (-1, 1), (-1, -1), (3, 0), (-3, 0), (4, 0), (-4, 0),
        (0, 2), (0, -2), (2, 2), (-2, -2),
    ]
]


def root_candidates(extra=()):
    """``extra`` (e.g. matrix diagonal entries) then the common small
    Gaussian integers, without repeats (compared by reduced triple)."""
    seen = set()
    candidates = []
    for cand in (*extra, *_FAST_ROOT_CANDIDATES):
        key = (cand._a, cand._b, cand._d)
        if key not in seen:
            seen.add(key)
            candidates.append(cand)
    return candidates


def _deflated(re, im, z_re, z_im, w):
    """The quotient of ``re + im i`` (Gaussian-integer coefficients, highest
    power first) by ``x - (z_re + z_im i) / w``, or None when that is not a
    root.

    Horner over Z[i] homogenised by powers of w: h_k = z h_(k-1) + c_k w^k
    is w^k times the k-th Horner value, so h_n = w^n p(z / w), and the
    quotient's coefficients h_k / w^k come back as the Gaussian integers
    h_k w^(n-1-k), divided by their content.
    """
    h_re = h_im = 0
    q_re, q_im = [], []
    wk = 1
    for c_re, c_im in zip(re, im):
        h_re, h_im = h_re * z_re - h_im * z_im + c_re * wk, h_re * z_im + h_im * z_re + c_im * wk
        q_re.append(h_re)
        q_im.append(h_im)
        wk *= w
    if h_re or h_im:
        return None
    del q_re[-1], q_im[-1]
    if w != 1:
        top = len(q_re) - 1
        q_re = [h * w ** (top - k) for k, h in enumerate(q_re)]
        q_im = [h * w ** (top - k) for k, h in enumerate(q_im)]
    g = math.gcd(*q_re, *q_im)
    return [h // g for h in q_re], [h // g for h in q_im]


def scan_roots(coeffs, candidates):
    """The candidates that are roots of ``coeffs`` (highest power first),
    with their algebraic multiplicities, in candidate order, and the
    cofactor left when they are divided out.

    The denominators are cleared once; each candidate (u + v i) / w is
    then evaluated by Horner over Z[i] (see ``_deflated``) on what is left
    of the polynomial, and only at a root is it divided out, as often as
    it divides.  The cofactor is a list of Gaussian integers, a nonzero
    multiple of the monic one.
    """
    re, im, _ = _numerators(coeffs)
    pairs = []
    for cand in candidates:
        mult = 0
        while len(re) > 1:
            quotient = _deflated(re, im, cand._a, cand._b, cand._d)
            if quotient is None:
                break
            re, im = quotient
            mult += 1
        if mult:
            pairs.append((cand, mult))
        if len(re) == 1:
            break
    return pairs, [GaussianRational._raw(a, b, 1) for a, b in zip(re, im)]


def gaussian_rational_roots(coeffs, extra_candidates=()):
    """Roots of a monic polynomial that lie in the Gaussian rationals.

    Returns (list of (root, multiplicity) sorted by real then imaginary
    part, leftover_degree) where the leftover degree counts roots outside
    the field.  One integer scan (``scan_roots``) of common candidates plus
    ``extra_candidates`` (e.g. matrix diagonal entries) finds the obvious
    roots with their multiplicities; the cofactor it leaves is factored
    over Q(i), which finds the rest.
    """
    pairs, rest = scan_roots(coeffs, root_candidates(extra_candidates))
    found = dict(pairs)
    leftover = 0
    if len(rest) > 1:
        for factor, mult in factor_gaussian(rest):
            if len(factor) == 2:
                root = -factor[1]
                found[root] = found.get(root, 0) + mult
            else:
                leftover += (len(factor) - 1) * mult
    roots = sorted(found.items(), key=lambda item: (item[0].re, item[0].im))
    return roots, leftover


def cluster_eigenvalues(values, ctx: ToleranceContext = DEFAULT_CONTEXT):
    """Merge numeric eigenvalues within 10*eps (scale-aware) clusters."""
    vals = sorted(values, key=lambda z: (z.real, z.imag))
    scale = max([abs(z) for z in vals], default=1.0)
    radius = ctx.cluster_radius(scale)
    clusters = []
    for z in vals:
        placed = False
        for cluster in clusters:
            if abs(z - cluster[0] / len(cluster[1])) <= radius:
                cluster[1].append(z)
                cluster[0] += z
                placed = True
                break
        if not placed:
            clusters.append([z, [z]])
    out = []
    for total, members in clusters:
        center = total / len(members)
        out.append((complex(center), len(members)))
    out.sort(key=lambda item: (item[0].real, item[0].imag))
    return out


def eigenvalues(m: Matrix, ctx: ToleranceContext = DEFAULT_CONTEXT):
    """Eigenvalues with algebraic multiplicities.

    Exact: complete list demanded; a leftover outside the field raises
    ExactEigenvalueNotInField.  Approx: numeric spectrum, clustered.
    """
    if m.rows != m.cols:
        raise ValueError("eigenvalues of a non-square matrix")
    if m.rows > MAX_EIGEN_DIM:
        raise SizeLimit(f"eigen decomposition capped at dim {MAX_EIGEN_DIM}")
    if m.backend == EXACT:
        diag = [m.entries[i][i] for i in range(m.rows)]
        roots, leftover = gaussian_rational_roots(charpoly(m), extra_candidates=diag)
        if leftover:
            raise ExactEigenvalueNotInField(
                f"{leftover} eigenvalue(s) lie outside the Gaussian rationals"
            )
        return roots
    try:
        vals = np.linalg.eigvals(m.to_numpy())
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(str(exc)) from exc
    return cluster_eigenvalues(list(vals), ctx)


@dataclass(frozen=True)
class GenEigenData:
    """One generalized eigenspace: basis, Jordan block sizes, nilpotency index."""

    eigenvalue: object
    space_basis: tuple
    block_sizes: tuple
    index: int

    @property
    def dim(self) -> int:
        return len(self.space_basis)


def _shift(m: Matrix, lam) -> Matrix:
    return m - Matrix.identity(m.rows, m.backend).scale(lam)


def generalized_eigenspace(m: Matrix, lam, alg_mult=None, ctx: ToleranceContext = DEFAULT_CONTEXT) -> GenEigenData:
    """Generalized eigenspace data for one eigenvalue.

    Follows the kernel chain of (m - lam)^p until it stabilises; block
    sizes come from the nullity increments (conjugate partition).
    """
    shifted = _shift(m, lam)
    power = shifted
    dims = []
    prev = 0
    last_kernel = []
    while True:
        kernel = nullspace(power, ctx)
        d = len(kernel)
        if d == prev:
            break
        dims.append(d)
        prev = d
        last_kernel = kernel
        if alg_mult is not None and d >= alg_mult:
            break
        if len(dims) > m.rows:
            break
        power = power @ shifted
    if not dims:
        return GenEigenData(lam, (), (), 0)
    index = len(dims)
    increments = [dims[0]] + [dims[i] - dims[i - 1] for i in range(1, len(dims))]
    blocks = []
    for size in range(len(increments), 0, -1):
        nxt = increments[size] if size < len(increments) else 0
        count = increments[size - 1] - nxt
        blocks.extend([size] * count)
    return GenEigenData(
        lam, tuple(last_kernel), tuple(sorted(blocks, reverse=True)), index
    )


def generalized_eigenspaces(m: Matrix, ctx: ToleranceContext = DEFAULT_CONTEXT):
    """Complete generalized eigenspace decomposition of a square matrix.

    Post: the spaces are independent and their dimensions sum to the
    ambient dimension (the finite-dimensional spectral decomposition).
    """
    pairs = eigenvalues(m, ctx)
    out = []
    total = 0
    for lam, mult in pairs:
        data = generalized_eigenspace(m, lam, alg_mult=mult, ctx=ctx)
        if data.dim != mult:
            raise NonConvergence(
                f"generalized eigenspace at {lam!r} has dim {data.dim}, expected {mult}"
            )
        out.append(data)
        total += data.dim
    if total != m.rows:
        raise NonConvergence(
            f"generalized eigenspaces sum to {total}, ambient dim {m.rows}"
        )
    return out


# -- intertwiners ------------------------------------------------------------


def intertwiner_space(a_gens, b_gens, ctx: ToleranceContext = DEFAULT_CONTEXT):
    """Basis of {T : T A_i = B_i T for all i}, as matrices.

    The generators must come in matched lists (images of the same abstract
    generators).  An invertible member, when one exists, witnesses
    isomorphism of the two representations.
    """
    if len(a_gens) != len(b_gens):
        raise ValueError("generator lists have different lengths")
    if not a_gens:
        raise ValueError("empty generator lists")
    backend = same_backend(
        *[g.backend for g in a_gens], *[g.backend for g in b_gens]
    )
    a_dim = a_gens[0].rows
    b_dim = b_gens[0].rows
    for g in a_gens:
        if g.shape != (a_dim, a_dim):
            raise ValueError("A-generators must be square of equal size")
    for g in b_gens:
        if g.shape != (b_dim, b_dim):
            raise ValueError("B-generators must be square of equal size")
    start = zero(backend)
    unknowns = b_dim * a_dim  # T[r][c] -> index r*a_dim + c
    rows = []
    for a, b in zip(a_gens, b_gens):
        for r in range(b_dim):
            for c in range(a_dim):
                row = [start] * unknowns
                for v in range(a_dim):
                    row[r * a_dim + v] = row[r * a_dim + v] + a.entries[v][c]
                for u in range(b_dim):
                    row[u * a_dim + c] = row[u * a_dim + c] - b.entries[r][u]
                rows.append(row)
    system = Matrix(rows, backend)
    basis = nullspace(system, ctx)
    out = []
    for vec in basis:
        grid = [
            [vec[r * a_dim + c] for c in range(a_dim)] for r in range(b_dim)
        ]
        out.append(Matrix(grid, backend))
    return out

