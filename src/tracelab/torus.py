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
integer-vs-frequency summation.
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
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import (
    FloatRangeExceeded,
    GrowthInadmissible,
    SizeLimit,
    TailBoundExceedsTolerance,
)
from .linalg import Matrix, _poly_derivative, _poly_divmod, _stripped
from .scalars import APPROX, DEFAULT_CONTEXT, ToleranceContext, one
from .spectral import AdmissibleModel, default_resolvent_sample

TWO_PI = 2.0 * math.pi
LOG_FLOAT_MAX = math.log(sys.float_info.max)
EPS = sys.float_info.epsilon


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
        merged = []
        for a, size in blocks:
            for entry in merged:
                if abs(entry[0] - a) <= 1e-12 * max(1.0, abs(a)):
                    entry[1] += size
                    break
            else:
                merged.append([a, size])
        # merged once: trace_power reads it for every term of the geometric side
        object.__setattr__(self, "_jordan", tuple((a, m) for a, m in merged))

    @property
    def dim(self) -> int:
        return sum(size for _, size in self.blocks)

    def jordan_data(self):
        """Aggregated (eigenvalue, total generalized multiplicity) pairs."""
        return list(self._jordan)

    def theta_data(self):
        """(theta_j, m_j) pairs on the normalized branch."""
        return [(log_branch(a), m) for a, m in self.jordan_data()]

    def trace_power(self, n: int) -> complex:
        """tr(omega(1)^n) = sum_j m_j a_j^n; nilpotent parts are traceless."""
        return sum(m * a**n for a, m in self._jordan)

    def growth_base(self) -> float:
        return max(max(abs(a), 1.0 / abs(a)) for a, _ in self._jordan)

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
        return val


@dataclass(frozen=True)
class BumpTestFunction:
    """Standard compactly supported bump exp(-1/(1-(x/radius)^2)) on (-radius, radius).

    The transform has no closed form.  ``quad`` computes it by the
    trapezoid rule, whose aliasing error follows from Poisson summation
    and the closed-form derivative masses of the bump, and that error is
    added to the spectral tail bound.
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


# -- the bump's derivatives, exactly ---------------------------------------------
#
# With u = x / radius, d^p/du^p exp(-1/(1-u^2)) = P_p(u) (1-u^2)^(-2p)
# exp(-1/(1-u^2)) for integer polynomials P_p, so the mass of the p-th
# derivative is the total variation of the (p-1)-th across the real zeros
# of P_p.  Polynomials are integer lists, highest power first, as in
# ``linalg``.

_BISECTION_BITS = 46  # bisection points are integer multiples of 2^-46
_BRACKET_BITS = 44  # a zero is bracketed to width 2^-44


def _bump_derivative_polys(order: int) -> list:
    """[P_0, ..., P_order]: P_0 = 1 and
    P_{p+1} = (1-u^2)^2 P_p' + (4pu(1-u^2) - 2u) P_p."""
    polys = [[1]]
    for p in range(order):
        prev = polys[-1]
        out = [0] * (len(prev) + 3)
        for i, c in enumerate(prev):
            k = len(prev) - 1 - i  # c is the coefficient of u^k
            out[i] += (k - 4 * p) * c  # u^(k+3)
            out[i + 2] += (4 * p - 2 - 2 * k) * c  # u^(k+1)
            if k:
                out[i + 4] += k * c  # u^(k-1)
        polys.append(_stripped(out))
    return polys


def _sign_at(poly, a: int) -> int:
    """Sign of an integer polynomial at a * 2^-_BISECTION_BITS."""
    acc = 0
    for i, c in enumerate(poly):
        acc = acc * a + (c << (_BISECTION_BITS * i))
    return (acc > 0) - (acc < 0)


def _zero_brackets(poly):
    """Brackets (a, b], in units of 2^-_BISECTION_BITS, each holding exactly
    one distinct real zero of ``poly`` in (-1, 1].

    Sturm's theorem isolates the zeros; each is then bisected on the sign
    of the squarefree part, whose zeros are simple.
    """
    chain = [[Fraction(c) for c in poly]]
    chain.append(_poly_derivative(chain[0]))
    while True:
        rem = _poly_divmod(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append([-c for c in rem])
    squarefree = _poly_divmod(chain[0], chain[-1])[0]
    chain = [_integer_multiple(q) for q in chain]
    squarefree = _integer_multiple(squarefree)

    def variations(a):
        signs = [s for s in (_sign_at(q, a) for q in chain) if s]
        return sum(x != y for x, y in zip(signs, signs[1:]))

    one = 1 << _BISECTION_BITS
    width = 1 << (_BISECTION_BITS - _BRACKET_BITS)
    brackets = []
    pending = [(-one, one, variations(-one), variations(one))]
    while pending:
        a, b, va, vb = pending.pop()
        if va - vb > 1:
            mid = (a + b) // 2
            vm = variations(mid)
            pending += [(a, mid, va, vm), (mid, b, vm, vb)]
        elif va - vb == 1:
            sign_b = _sign_at(squarefree, b)
            if not sign_b:
                a = b
            while b - a > width:
                mid = (a + b) // 2
                sign_mid = _sign_at(squarefree, mid)
                if sign_mid == sign_b:
                    b = mid
                elif sign_mid:
                    a = mid
                else:
                    a = b = mid
            brackets.append((a, b))
    return sorted(brackets)


def _integer_multiple(poly):
    """A positive multiple of a rational polynomial with integer coefficients."""
    den = math.lcm(*(c.denominator for c in poly))
    return [int(c * den) for c in poly]


@lru_cache(maxsize=None)
def _unit_bump_mass(order: int) -> float:
    """Upper bound on the integral of |d^order/du^order exp(-1/(1-u^2))| over (-1, 1).

    The total variation of g = the (order-1)-th derivative, summed between
    its extrema and the endpoints, where g vanishes.  Each extremum z
    lies in a bracket of width w around a dyadic midpoint m, and
    |g(z) - g(m)| <= sup|g''| w^2 / 8 because g'(z) = 0; g(m) is
    evaluated exactly up to one float exponential.
    """
    polys = _bump_derivative_polys(order + 1)
    g = polys[order - 1]
    # sup|g''| <= sum|coefficients of P_(order+1)| * max_t t^k e^-t, k = 2(order+1)
    k = 2 * (order + 1)
    sup_g2 = sum(abs(c) for c in polys[order + 1]) * (k / math.e) ** k
    values, radii = [0.0], [0.0]
    for a, b in _zero_brackets(polys[order]):
        m = Fraction(a + b, 2 << _BISECTION_BITS)
        s = 1 / (1 - m * m)
        poly_m = Fraction(0)
        for c in g:
            poly_m = poly_m * m + c
        s_float = float(s)
        value = float(poly_m * s ** (2 * (order - 1))) * math.exp(-s_float)
        w = (b - a) / (1 << _BISECTION_BITS)
        values.append(value)
        # the float exponential of a rounded argument: relative error below (s + 8) eps
        radii.append(abs(value) * (s_float + 8) * EPS + sup_g2 * w * w / 8)
    values.append(0.0)
    radii.append(0.0)
    total = sum(
        abs(y - x) + r + q for x, y, r, q in zip(values, values[1:], radii, radii[1:])
    )
    return total * (1 + 2 * len(values) * EPS)


def _bump_derivative_mass(radius: float, order: int) -> float:
    """Upper bound on the integral of |d^order/dx^order exp(-1/(1-(x/radius)^2))|."""
    return _unit_bump_mass(order) * radius ** (1 - order) * (1 + 4 * EPS)


# -- the bump's transform: a certified trapezoid rule ---------------------------

# the aliasing bound is kept below this share of the spectral truncation tail
ALIAS_SHARE = 0.01
# grid points x frequencies of one trapezoid sum, and of one block of it
TRAPEZOID_CAP = 1 << 24
_TRAPEZOID_BLOCK = 1 << 16
# sum over m != 0 of (|m| - 1/2)^-4 is pi^4/3
_ALIAS_SERIES = math.pi**4 / 3


def quad(f: BumpTestFunction, xis, weights, budget: float):
    """sum_i weights_i F(xi_i) for the bump ``f`` and a bound on its error.

    One trapezoid sum h sum_j f(jh) exp(2 pi i xi jh) serves every xi.  By
    Poisson summation it equals sum_m F(xi + m/h), and for |Re xi| <= 1/(2h)
    the aliased terms m != 0 sum to at most
    mass_4 exp(2 pi |Im xi| radius) h^4 (pi^4/3) / (2 pi)^4.  The step h is
    the largest radius/M that keeps every |Re xi| <= 1/(2h) and the weighted
    aliasing bound within ``budget``; the error bound adds an n eps rounding
    bound on the n-term sums.  A grid too large for ``TRAPEZOID_CAP`` raises
    ``SizeLimit``.
    """
    radius = f.radius
    xis = np.asarray(xis, dtype=complex)
    weights = np.asarray(weights, dtype=float)
    damp = np.exp(TWO_PI * np.abs(xis.imag) * radius)
    alias_per_h4 = (
        _bump_derivative_mass(radius, 4) * _ALIAS_SERIES / TWO_PI**4 * damp
    )
    step = (budget / float(weights @ alias_per_h4)) ** 0.25
    top = float(np.max(np.abs(xis.real), initial=0.0))
    if top > 0:
        step = min(step, 0.5 / top)
    intervals = math.ceil(radius / step)
    points = 2 * intervals - 1
    if points * len(xis) > TRAPEZOID_CAP:
        raise SizeLimit(
            f"trapezoid grid of {points} points x {len(xis)} frequencies "
            f"exceeds {TRAPEZOID_CAP}"
        )
    h = radius / intervals
    x = np.arange(1 - intervals, intervals) * h
    u = x / radius
    s = 1.0 / (1.0 - u * u)
    fx = np.exp(-s)
    sums = np.empty(len(xis), dtype=complex)
    rows = max(1, _TRAPEZOID_BLOCK // points)
    for lo in range(0, len(xis), rows):
        sums[lo : lo + rows] = np.exp(2j * math.pi * np.outer(xis[lo : lo + rows], x)) @ fx
    # A term f(x) exp(2 pi i xi x) is computed within (4 pi |xi| radius +
    # 6 s^2 + 8) eps of itself, and a sum of n terms adds n eps of the sum of
    # their magnitudes, which depend on Im xi alone.
    imag, which = np.unique(xis.imag, return_inverse=True)
    magnitudes = np.exp(-TWO_PI * np.outer(imag, x)) @ np.stack([fx, fx * s * s], axis=1)
    sizes, edges = (h * magnitudes[which]).T
    rounding = EPS * ((points + 2 * TWO_PI * np.abs(xis) * radius + 8) * sizes + 6 * edges)
    value = complex(weights @ (h * sums))
    error = float(weights @ (alias_per_h4 * h**4 + rounding)) * (1 + 4 * EPS * len(xis))
    if not (cmath.isfinite(value) and math.isfinite(error)):
        raise OverflowError("trapezoid sum outside double precision")
    return value, error


# the most terms a truncated side sums: (2K + 1) per character frequency on
# the spectral side, 2N + 1 on the geometric side
MAX_TRUNCATION_TERMS = 100_000


def _check_terms(side: str, terms: int):
    if terms > MAX_TRUNCATION_TERMS:
        raise SizeLimit(f"{side}: {terms} terms exceed {MAX_TRUNCATION_TERMS}")


@dataclass(frozen=True)
class TruncationParams:
    """Cutoffs: |k| <= K on the spectral side, |n| <= N on the geometric side.

    Tail bounds are computed, not assumed; every verification statement is
    conditional on them.  ``spectral_tail_cap`` (optional) turns an
    oversized certified tail into an error instead of a silent loose bound.
    A side with more than ``MAX_TRUNCATION_TERMS`` terms raises
    ``SizeLimit`` before it sums any.
    """

    K: int = 8
    N: int = 8
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
    the transform: closed form for the Gaussian; for the bump, derivative
    masses plus the certified error of one trapezoid sum over all the
    frequencies (``quad``), whose aliasing is held to ``ALIAS_SHARE`` of
    the truncation tail.
    """
    thetas = twist.theta_data()
    ks = range(-params.K, params.K + 1)
    _check_terms(f"spectral side at K = {params.K}", len(ks) * len(thetas))
    tail = _spectral_tail_bound(twist, f, params.K)
    if f.kind == "bump":
        xis = [theta + k for theta, _ in thetas for k in ks]
        weights = [m for _, m in thetas for _ in ks]
        value, error = quad(f, xis, weights, ALIAS_SHARE * tail)
        tail += error
    else:
        value = 0j
        for theta, m in thetas:
            for k in ks:
                value += m * f.transform(theta + k)
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
        mass4 = _bump_derivative_mass(f.radius, 4)
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
    _check_terms(f"geometric side at N = {params.N}", 2 * params.N + 1)
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

        # the ratio test applies (ratio <= 1/2) from n_star on
        n_star = max(
            start, math.ceil(s * s * math.log(2.0 * base) / TWO_PI + sign * c - 0.5)
        )
        total = phi(n_star) / (1.0 - ratio(n_star))
        if n_star > start:
            # the head's terms dim * exp(E(n)) have a concave quadratic E,
            # peaked at mode: a unimodal sum is at most its integral plus its
            # peak, and the Gaussian integral from start on is an erfc
            mode = sign * c + s * s * math.log(base) / TWO_PI
            z = math.sqrt(math.pi) * (start - mode) / s
            if z <= 0:
                peak = phi(mode)
                integral = 0.5 * s * math.erfc(z) * peak
            else:
                # decreasing from start on; erfc(z) <= exp(-z^2) min(1, 1/(z sqrt(pi)))
                peak = phi(start)
                integral = 0.5 * s * peak * min(1.0, 1.0 / (z * math.sqrt(math.pi)))
            total += integral + peak
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
    return TorusVerification(
        spectral, geometric, tail_s, tail_g, tolerance, params, passed
    )


_NAN_ERRORS = ("math domain error", "cannot convert float NaN to integer")


def _in_float_range(side: str, compute, *args):
    try:
        return compute(*args)
    except (OverflowError, ZeroDivisionError, ValueError) as exc:
        # an overflow, a divisor that underflowed to zero, math's domain
        # error on an inf/nan intermediate or a nan rounded to an int; any
        # other ValueError keeps its type.  float ** float's OverflowError
        # carries (errno, message)
        if isinstance(exc, ValueError) and str(exc) not in _NAN_ERRORS:
            raise
        raise FloatRangeExceeded(
            f"{side}: outside double precision ({exc.args[-1]})"
        ) from exc


# -- mode-truncated Laplacian models ------------------------------------------

# the translations whose actions on the mode span are a model's generators
_TRANSLATION_SAMPLES = (1.0, 0.5)


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
    the twist.  The translations by ``_TRANSLATION_SAMPLES`` become the
    model's generators.
    """
    dim = twist.dim * (2 * big_k + 1)
    if dim > 2000:
        raise SizeLimit(f"mode truncation dimension {dim} exceeds 2000")
    delta_blocks = []
    gen_blocks = {y: [] for y in _TRANSLATION_SAMPLES}
    for a, size in twist.blocks:
        theta = log_branch(a)
        m_log = _nilpotent_log(size)
        for k in range(-big_k, big_k + 1):
            freq = theta + k
            d_op = 2j * math.pi * freq * np.eye(size, dtype=complex) + m_log
            delta_blocks.append(Matrix.from_numpy(-(d_op @ d_op)))
            for y in _TRANSLATION_SAMPLES:
                phase = cmath.exp(2j * math.pi * freq * y)
                gen_blocks[y].append(Matrix.from_numpy(phase * _nilpotent_exp(y * m_log)))
    delta = Matrix.block_diag(delta_blocks)
    generators = tuple(Matrix.block_diag(gen_blocks[y]) for y in _TRANSLATION_SAMPLES)
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
