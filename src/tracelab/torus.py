"""Twisted lattice summation on the circle: the real-line case.

The ambient group is the real line, the lattice is the integers
(Lebesgue measure, covolume 1), and the twist is a single invertible
monodromy matrix.  The trace formula then reads

    sum_j m_j sum_k F(theta_j + k)  =  sum_n f(n) tr(omega(1)^n)

with ``theta_j = log(a_j) / (2 pi i)`` on the branch ``Re theta in
[0, 1)``; a nonzero imaginary part of theta is exactly the
non-unitarizable regime.  The character pairing is

    F(xi) = integral f(x) exp(2 pi i xi x) dx,

the orientation that makes the trivial twist reproduce classical
integer-vs-frequency summation (a switchable flag exists for audit).
Both sides are evaluated with certified truncation: every reported value
carries a tail bound, and a verification passes only when the residual
is below tolerance plus both tails.

Everything here is numeric (the frequencies are transcendental), so this
module lives on the approx backend.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from scipy.integrate import quad

from .errors import (
    FloatRangeExceeded,
    GrowthInadmissible,
    SizeLimit,
    TailBoundExceedsTolerance,
)
from .linalg import Matrix
from .scalars import APPROX, DEFAULT_CONTEXT, ToleranceContext, one, zero
from .spectral import AdmissibleModel, default_resolvent_sample

TWO_PI = 2.0 * math.pi
LOG_FLOAT_MAX = math.log(sys.float_info.max)


def log_branch(a: complex) -> complex:
    """theta = log(a) / (2 pi i) with Re(theta) normalized into [0, 1)."""
    if a == 0:
        raise ValueError("monodromy eigenvalue must be nonzero")
    theta = cmath.log(a) / (2j * math.pi)
    shift = math.floor(theta.real)
    return theta - shift


@dataclass(frozen=True)
class TorusTwist:
    """Monodromy data: individual Jordan blocks (eigenvalue, size)."""

    blocks: tuple

    def __post_init__(self):
        blocks = tuple((complex(a), int(size)) for a, size in self.blocks)
        if not blocks:
            raise ValueError("twist needs at least one block")
        for a, size in blocks:
            if a == 0:
                raise ValueError("monodromy eigenvalue must be nonzero")
            if size < 1:
                raise ValueError("block size must be positive")
        object.__setattr__(self, "blocks", blocks)

    @property
    def dim(self) -> int:
        return sum(size for _, size in self.blocks)

    def jordan_data(self):
        """Aggregated (eigenvalue, total generalized multiplicity) pairs."""
        merged = []
        for a, size in self.blocks:
            for entry in merged:
                if abs(entry[0] - a) <= 1e-12 * max(1.0, abs(a)):
                    entry[1] += size
                    break
            else:
                merged.append([a, size])
        return [(a, m) for a, m in merged]

    def theta_data(self):
        """(theta_j, m_j) pairs on the normalized branch."""
        return [(log_branch(a), m) for a, m in self.jordan_data()]

    def monodromy(self) -> Matrix:
        blocks = []
        for a, size in self.blocks:
            grid = [
                [a if i == j else (one(APPROX) if j == i + 1 else zero(APPROX)) for j in range(size)]
                for i in range(size)
            ]
            blocks.append(Matrix(grid, APPROX))
        return Matrix.block_diag(blocks)

    def trace_power(self, n: int) -> complex:
        """tr(omega(1)^n) = sum_j m_j a_j^n; nilpotent parts are traceless."""
        return sum(m * a**n for a, m in self.jordan_data())

    def growth_base(self) -> float:
        return max(max(abs(a), 1.0 / abs(a)) for a, _ in self.jordan_data())

    def direct_sum(self, other: "TorusTwist") -> "TorusTwist":
        return TorusTwist(self.blocks + other.blocks)


def trivial_torus_twist(dim: int = 1) -> TorusTwist:
    return TorusTwist(tuple((one(APPROX), 1) for _ in range(dim)))


# -- test functions ------------------------------------------------------------


@dataclass(frozen=True)
class GaussianTestFunction:
    """f(x) = exp(-pi ((x - center) / width)^2); transform in closed form."""

    width: float = 1.0
    center: float = 0.0
    kind: str = "gaussian"

    def __post_init__(self):
        if self.width <= 0:
            raise ValueError("width must be positive")

    def value(self, x: float) -> float:
        u = (x - self.center) / self.width
        return math.exp(-math.pi * u * u)

    def transform(self, xi: complex):
        """F(xi) = width * exp(2 pi i xi center) * exp(-pi width^2 xi^2), exact."""
        xi = complex(xi)
        val = (
            self.width
            * cmath.exp(2j * math.pi * xi * self.center)
            * cmath.exp(-math.pi * self.width**2 * xi * xi)
        )
        return val, 0.0


def _bump_profile_derivative_mass(radius: float, order: int) -> float:
    """integral of |d^order/dx^order exp(-1/(1-(x/B)^2))| over the support."""
    return _bump_mass_cached(float(radius), int(order))


@lru_cache(maxsize=32)
def _bump_mass_cached(radius: float, order: int) -> float:
    import sympy

    x = sympy.symbols("x")
    profile = sympy.exp(-1 / (1 - (x / radius) ** 2))
    deriv = sympy.diff(profile, x, order)
    fn = sympy.lambdify(x, deriv, "math")

    def absval(t):
        if abs(t) >= radius:
            return 0.0
        try:
            return abs(fn(t))
        except (OverflowError, ZeroDivisionError):
            return 0.0

    val, err = quad(absval, -radius, radius, limit=400)
    return float(val + 2.0 * err)


@dataclass(frozen=True)
class BumpTestFunction:
    """Standard compactly supported bump exp(-1/(1-(x/radius)^2)) on (-radius, radius).

    The transform has no closed form; it is computed by adaptive
    quadrature and the quadrature error estimate is propagated into the
    spectral tail bound.
    """

    radius: float = 1.0
    kind: str = "bump"

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("radius must be positive")

    def value(self, x: float) -> float:
        u = x / self.radius
        if abs(u) >= 1.0:
            return 0.0
        return math.exp(-1.0 / (1.0 - u * u))

    def transform(self, xi: complex):
        xi = complex(xi)
        u, v = xi.real, xi.imag

        def damped(x):
            return self.value(x) * math.exp(-TWO_PI * v * x)

        re_val, re_err = quad(
            lambda x: damped(x) * math.cos(TWO_PI * u * x),
            -self.radius,
            self.radius,
            limit=300,
            epsabs=1e-13,
        )
        im_val, im_err = quad(
            lambda x: damped(x) * math.sin(TWO_PI * u * x),
            -self.radius,
            self.radius,
            limit=300,
            epsabs=1e-13,
        )
        return complex(re_val, im_val), float(re_err + im_err)


@dataclass(frozen=True)
class TruncationParams:
    """Cutoffs: |k| <= K on the spectral side, |n| <= N on the geometric side.

    Tail bounds are computed, not assumed; every verification statement is
    conditional on them.  ``spectral_tail_cap`` (optional) turns an
    oversized certified tail into an error instead of a silent loose bound.
    """

    K: int = 8
    N: int = 8
    tail_bound_spectral: float | None = None
    tail_bound_geometric: float | None = None
    spectral_tail_cap: float | None = None


def spectral_characters(twist: TorusTwist):
    """Lazily enumerate (character frequency theta_j + k, multiplicity m_j).

    Spiral order over k = 0, 1, -1, 2, -2, ... so truncation prefixes are
    symmetric windows.
    """
    thetas = twist.theta_data()
    k = 0
    while True:
        for theta, m in thetas:
            yield theta + k, m
        if k == 0:
            k = 1
        elif k > 0:
            k = -k
        else:
            k = -k + 1


def spectral_side_torus(twist: TorusTwist, f, params: TruncationParams):
    """Truncated character sum sum_j m_j sum_{|k|<=K} F(theta_j + k).

    Returns (value, tail_bound) with the tail certified from the decay of
    the transform (closed form for the Gaussian, derivative bounds plus
    quadrature error for the bump).
    """
    value = 0j
    quad_err = 0.0
    for theta, m in twist.theta_data():
        for k in range(-params.K, params.K + 1):
            term, err = f.transform(theta + k)
            value += m * term
            quad_err += m * err
    tail = quad_err + _spectral_tail_bound(twist, f, params.K)
    if params.spectral_tail_cap is not None and tail > params.spectral_tail_cap:
        raise TailBoundExceedsTolerance(
            f"spectral tail {tail:.3e} exceeds cap {params.spectral_tail_cap:.3e}"
        )
    return value, tail


def _spectral_tail_bound(twist: TorusTwist, f, big_k: int) -> float:
    total = 0.0
    if f.kind == "gaussian":
        s = f.width
        c = f.center
        for theta, m in twist.theta_data():
            r = theta.real
            b_im = theta.imag
            const = s * math.exp(-TWO_PI * c * b_im + math.pi * s * s * b_im * b_im)
            base_pos = big_k + 1  # k + r >= K + 1 for k >= K + 1, r >= 0
            base_neg = big_k + 1 - r  # |k| - r >= K + 1 - r for k <= -(K+1)
            for base in (base_pos, base_neg):
                expo = math.pi * s * s * base * base
                decay = TWO_PI * s * s * base
                head = math.exp(-expo) if expo < 700 else 0.0
                total += m * const * head / max(1.0 - math.exp(-decay), 1e-16)
        return total
    if f.kind == "bump":
        if big_k < 2:
            raise GrowthInadmissible("bump tail bound needs K >= 2")
        mass4 = _bump_profile_derivative_mass(f.radius, 4)
        for theta, m in twist.theta_data():
            damp = math.exp(TWO_PI * abs(theta.imag) * f.radius)
            c4 = mass4 * damp
            # sum over |k| > K of |2 pi (theta + k)|^-4 <= 2 sum_{m>=K} m^-4
            series = 2.0 * (1.0 / big_k**4 + 1.0 / (3.0 * big_k**3))
            total += m * c4 * series / (TWO_PI**4)
        return total
    raise ValueError(f"unknown test function kind {f.kind!r}")


def geometric_side_torus(twist: TorusTwist, f, params: TruncationParams):
    """Truncated monodromy-weighted sum sum_{|n|<=N} f(n) tr(omega(1)^n).

    Centralizers are everything for an abelian ambient group, so the
    orbital integral is a point evaluation and the covolume is 1.  The
    tail is certified against the twist's growth; a cutoff where the
    Gaussian decay has not yet overtaken the growth extends the bound
    (never the value) until the ratio test applies.
    """
    if params.N * math.log(twist.growth_base()) > LOG_FLOAT_MAX:
        # the overflow the loop below would reach, raised before the loop
        raise OverflowError(
            f"tr(omega(1)^n) overflows before |n| = N = {params.N}"
        )
    value = 0j
    for n in range(-params.N, params.N + 1):
        value += f.value(n) * twist.trace_power(n)
    tail = _geometric_tail_bound(twist, f, params.N)
    return value, tail


def _geometric_tail_bound(twist: TorusTwist, f, big_n: int) -> float:
    dim = twist.dim
    base = twist.growth_base()
    if f.kind == "bump":
        tail = 0.0
        n = big_n + 1
        while n < f.radius:
            tail += dim * base**n * max(f.value(n), f.value(-n))
            n += 1
        return tail
    if f.kind != "gaussian":
        raise ValueError(f"unknown test function kind {f.kind!r}")
    s = f.width
    c = f.center

    def half_tail(start: int, sign: int) -> float:
        # bounds sum over n >= start of dim * base^n * f(sign * n)
        def phi(n: float) -> float:
            u = (sign * n - c) / s
            expo = -math.pi * u * u + n * math.log(base)
            return dim * math.exp(expo) if expo < 700 else math.inf

        def ratio(n: float) -> float:
            du = (2.0 * (n - sign * c) + 1.0) * math.pi / (s * s)
            return base * math.exp(-du)

        total = 0.0
        n = float(start)
        guard = 0
        while ratio(n) >= 0.5:
            total += phi(n)
            n += 1.0
            guard += 1
            if guard > 100000 or total == math.inf:
                raise GrowthInadmissible(
                    "test-function decay does not dominate the twist growth"
                )
        total += phi(n) / (1.0 - ratio(n))
        return total

    return half_tail(big_n + 1, +1) + half_tail(big_n + 1, -1)


@dataclass(frozen=True)
class TorusVerification:
    spectral_value: complex
    geometric_value: complex
    tail_spectral: float
    tail_geometric: float
    tolerance: float
    params: TruncationParams
    passed: bool

    @property
    def residual(self) -> float:
        return abs(self.spectral_value - self.geometric_value)


def verify_torus(
    twist: TorusTwist,
    f,
    params: TruncationParams | None = None,
    tolerance: float = 1e-10,
) -> TorusVerification:
    """PASS iff |spectral - geometric| <= tolerance + both tail bounds.

    A side whose evaluation leaves double precision raises
    ``FloatRangeExceeded`` naming that side.
    """
    params = params or TruncationParams()
    spectral, tail_s = _in_float_range("spectral side", spectral_side_torus, twist, f, params)
    geometric, tail_g = _in_float_range("geometric side", geometric_side_torus, twist, f, params)
    residual = abs(spectral - geometric)
    passed = residual <= tolerance + tail_s + tail_g
    filled = replace(params, tail_bound_spectral=tail_s, tail_bound_geometric=tail_g)
    return TorusVerification(
        spectral, geometric, tail_s, tail_g, tolerance, filled, passed
    )


def _in_float_range(side: str, compute, *args):
    try:
        return compute(*args)
    except (OverflowError, ZeroDivisionError, ValueError) as exc:
        # an overflow, a divisor that underflowed to zero, or math's domain
        # error on an inf/nan intermediate; any other ValueError keeps its
        # type.  float ** float's OverflowError carries (errno, message)
        if isinstance(exc, ValueError) and str(exc) != "math domain error":
            raise
        raise FloatRangeExceeded(
            f"{side}: outside double precision ({exc.args[-1]})"
        ) from exc


# -- mode-truncated Laplacian models ------------------------------------------


def _nilpotent_log(size: int) -> np.ndarray:
    """log(I + N) for the unipotent part of one Jordan block."""
    n = np.zeros((size, size), dtype=complex)
    for i in range(size - 1):
        n[i, i + 1] = 1.0
    out = np.zeros_like(n)
    power = n.copy()
    for t in range(1, size):
        out += ((-1) ** (t + 1) / t) * power
        power = power @ n
    return out


def _nilpotent_exp(m: np.ndarray) -> np.ndarray:
    size = m.shape[0]
    out = np.eye(size, dtype=complex)
    power = np.eye(size, dtype=complex)
    for t in range(1, size):
        power = power @ m / t
        out += power
    return out


def twisted_laplacian_model(
    twist: TorusTwist,
    big_k: int,
    ctx: ToleranceContext = DEFAULT_CONTEXT,
    translation_samples=(1.0, 0.5),
) -> AdmissibleModel:
    """Mode-truncated model of the second-derivative operator.

    Sections against mode ``k`` of block ``(a, size)`` are spanned by
    ``exp(2 pi i (theta + k) x) exp(x M) v`` with ``M = log`` of the
    unipotent part, so the derivative acts as ``2 pi i (theta + k) + M``
    on the coefficients and the negative second derivative gives the
    upper-triangular block

        (2 pi (theta+k))^2 I  -  (4 pi i (theta+k) M + M^2).

    The truncated mode span is genuinely invariant under translations, so
    the model is an honest finite subrepresentation; its spectrum is the
    closed form (2 pi (theta+k))^2 with the generalized multiplicities of
    the twist.  Translation samples become the model's generators.
    """
    dim = twist.dim * (2 * big_k + 1)
    if dim > 2000:
        raise SizeLimit(f"mode truncation dimension {dim} exceeds 2000")
    delta_blocks = []
    gen_blocks = {y: [] for y in translation_samples}
    for a, size in twist.blocks:
        theta = log_branch(a)
        m_log = _nilpotent_log(size)
        for k in range(-big_k, big_k + 1):
            freq = theta + k
            d_op = 2j * math.pi * freq * np.eye(size, dtype=complex) + m_log
            delta_blocks.append(Matrix.from_numpy(-(d_op @ d_op)))
            for y in translation_samples:
                phase = cmath.exp(2j * math.pi * freq * y)
                gen_blocks[y].append(Matrix.from_numpy(phase * _nilpotent_exp(y * m_log)))
    delta = Matrix.block_diag(delta_blocks)
    generators = tuple(Matrix.block_diag(gen_blocks[y]) for y in translation_samples)
    label = f"mode-model(K={big_k}, dim={dim})"
    return AdmissibleModel(
        generators, delta, default_resolvent_sample(delta, ctx), label, ctx
    )


def laplacian_expected_spectrum(twist: TorusTwist, big_k: int):
    """Closed-form spectrum [(eigenvalue, generalized multiplicity)] of the
    mode-truncated model, with cross-block collisions merged."""
    expected = []
    for a, size in twist.blocks:
        theta = log_branch(a)
        for k in range(-big_k, big_k + 1):
            lam = (2.0 * math.pi * (theta + k)) ** 2
            expected.append((lam, size))
    merged = []
    for lam, m in sorted(expected, key=lambda t: (t[0].real, t[0].imag)):
        if merged and abs(lam - merged[-1][0]) <= 1e-9 * max(1.0, abs(lam)):
            merged[-1][1] += m
        else:
            merged.append([lam, m])
    return [(lam, m) for lam, m in merged]
