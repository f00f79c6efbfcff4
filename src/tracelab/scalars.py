"""Dual-backend scalars.

Two backends cover every computation in the laboratory:

* ``exact`` -- Gaussian rationals ``p + q*i`` with arbitrary-precision
  rational parts.  Arithmetic is closed and equality is decidable, so
  identities asserted on this backend are exact theorems about the inputs.
* ``approx`` -- IEEE complex numbers together with an ambient
  :class:`ToleranceContext`.  Equality and rank questions always go through
  the context; algorithms never compare floats bitwise.

A "scalar" is either a :class:`GaussianRational` or a Python ``complex``.
Mixing the two in one operation raises :class:`~tracelab.errors.BackendMismatch`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar

from .errors import BackendMismatch, ParseError

EXACT = "exact"
APPROX = "approx"


from math import gcd as _gcd


class GaussianRational:
    """A Gaussian rational ``re + im*i`` with exact rational parts.

    Stored internally as a reduced integer triple ``(a + b i) / d`` with
    ``d > 0`` and ``gcd(a, b, d) = 1`` (one gcd per operation instead of
    one per Fraction, which dominates exact-arithmetic profiles).
    Instances are immutable and hashable; division is exact.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        re = Fraction(re)
        im = Fraction(im)
        d = re.denominator * im.denominator // _gcd(re.denominator, im.denominator)
        a = re.numerator * (d // re.denominator)
        b = im.numerator * (d // im.denominator)
        g = _gcd(a, b, d)
        _set_a(self, a // g)
        _set_b(self, b // g)
        _set_d(self, d // g)

    @classmethod
    def _raw(cls, a: int, b: int, d: int):
        if d < 0:
            a, b, d = -a, -b, -d
        g = _gcd(a, b, d)
        if g > 1:
            a //= g
            b //= g
            d //= g
        out = object.__new__(cls)
        _set_a(out, a)
        _set_b(out, b)
        _set_d(out, d)
        return out

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return (
                self._a == other._a and self._b == other._b and self._d == other._d
            )
        if isinstance(other, (int, Fraction)):
            return self._b == 0 and Fraction(self._a, self._d) == other
        return NotImplemented

    def __hash__(self):
        # a real value equals an int or a Fraction, so it hashes like one
        if self._b:
            return hash((self._a, self._b, self._d))
        return hash(self._a) if self._d == 1 else hash(Fraction(self._a, self._d))

    def __bool__(self):
        return bool(self._a or self._b)

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        d1, d2 = self._d, other._d
        return GaussianRational._raw(
            self._a * d2 + other._a * d1, self._b * d2 + other._b * d1, d1 * d2
        )

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational._raw(-self._a, -self._b, self._d)

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        d1, d2 = self._d, other._d
        return GaussianRational._raw(
            self._a * d2 - other._a * d1, self._b * d2 - other._b * d1, d1 * d2
        )

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        return GaussianRational._raw(
            a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self._d * other._d
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a2, b2 = other._a, other._b
        norm = a2 * a2 + b2 * b2
        if norm == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        a1, b1 = self._a, self._b
        return GaussianRational._raw(
            other._d * (a1 * a2 + b1 * b2),
            other._d * (b1 * a2 - a1 * b2),
            self._d * norm,
        )

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def conjugate(self):
        return GaussianRational._raw(self._a, -self._b, self._d)

    def norm(self) -> Fraction:
        """Field norm ``re**2 + im**2`` (a nonnegative rational)."""
        return Fraction(self._a * self._a + self._b * self._b, self._d * self._d)

    def to_complex(self) -> complex:
        return complex(self._a / self._d, self._b / self._d)

    def __repr__(self):
        return f"GaussianRational({str(self)!r})"

    def __str__(self):
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        im_text = f"{im}i" if abs(im) != 1 else ("i" if im > 0 else "-i")
        if re == 0:
            return im_text
        sign = "+" if im > 0 else ""
        return f"{re}{sign}{im_text}"


# the slot setters: immutable instances are filled through these, which
# is faster than object.__setattr__ by name on this hot path
_set_a, _set_b, _set_d = (
    GaussianRational.__dict__[name].__set__ for name in GaussianRational.__slots__
)


def _coerce(value):
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, int):
        return GaussianRational._raw(value, 0, 1)
    if isinstance(value, Fraction):
        return GaussianRational._raw(value.numerator, 0, value.denominator)
    return None


GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)
GR_I = GaussianRational(0, 1)


def coerce(value, backend: str):
    """``value`` as a scalar of ``backend``.

    Exact: a :class:`GaussianRational` (ints and Fractions are converted).
    Approx: a Python ``complex``; Gaussian rationals are demoted through
    :meth:`GaussianRational.to_complex`, never the reverse.
    """
    if backend == EXACT:
        return value if isinstance(value, GaussianRational) else GaussianRational(value)
    if isinstance(value, GaussianRational):
        return value.to_complex()
    return complex(value)


# coerced once: zero() seeds every Matrix.apply and trace sum
_ZERO = {backend: coerce(GR_ZERO, backend) for backend in (EXACT, APPROX)}
_ONE = {backend: coerce(GR_ONE, backend) for backend in (EXACT, APPROX)}


def zero(backend: str):
    """Additive identity of ``backend``."""
    return _ZERO[backend]


def one(backend: str):
    """Multiplicative identity of ``backend``."""
    return _ONE[backend]

# "3/2-1/4i", "i", "-2", "5i" ...  one or two signed rational terms, the
# imaginary one marked by a trailing i; a second term needs its sign and
# the other kind.
_TERM = re.compile(r"\s*([+-]?)\s*(\d+(?:/\d+)?)?\s*(i)?\s*")


def parse_gaussian_rational(text: str) -> GaussianRational:
    """Parse ``p/q+r/s i`` style strings (whitespace tolerated)."""
    s = text.strip()
    if not s:
        raise ParseError("empty scalar string")
    pos = 0
    parts = {}  # is_imaginary -> value
    while pos < len(s):
        m = _TERM.match(s, pos)
        if not m or m.end() == pos:
            raise ParseError(f"cannot parse scalar {text!r}")
        sign, mag, imag = m.groups()
        if mag is None and imag is None:
            raise ParseError(f"cannot parse scalar {text!r}")
        if pos and not sign:
            raise ParseError(f"unsigned second term in scalar {text!r}")
        if bool(imag) in parts:
            kind = "imaginary" if imag else "real"
            raise ParseError(f"two {kind} terms in scalar {text!r}")
        try:
            value = Fraction(mag) if mag is not None else Fraction(1)
        except ZeroDivisionError:
            raise ParseError(f"zero denominator in scalar {text!r}") from None
        parts[bool(imag)] = -value if sign == "-" else value
        pos = m.end()
    return GaussianRational(parts.get(False, 0), parts.get(True, 0))


def format_complex(z: complex) -> str:
    """Full-precision canonical rendering of a complex float."""
    return f"{z.real!r}{'+' if z.imag >= 0 else '-'}{abs(z.imag)!r}j"


@dataclass(frozen=True)
class ToleranceContext:
    """Ambient tolerance for the approx backend.

    One knob, ``eps``, governs every zero/rank/equality decision, so a
    report only has to cite it once.  Rank thresholds are relative to the
    scale of the matrix at hand (``eps * max(1, scale)``); eigenvalue
    clusters merge within ``10 * eps`` of that scale, mirroring the
    isolated-spectrum hypothesis the models instantiate.  A certified
    error bound above ``VACUITY_RATIO`` of the values it bounds (floored
    at 1) is too large for a PASS to say anything.
    """

    eps: float = 1e-10
    VACUITY_RATIO: ClassVar[float] = 0.1

    def zero_threshold(self, scale: float = 1.0) -> float:
        return self.eps * max(1.0, scale)

    def is_zero(self, z: complex, scale: float = 1.0) -> bool:
        return abs(z) <= self.zero_threshold(scale)

    def cluster_radius(self, scale: float = 1.0) -> float:
        return 10.0 * self.eps * max(1.0, scale)

    def is_vacuous(self, bound: float, scale: float = 1.0) -> bool:
        return bound > self.VACUITY_RATIO * max(1.0, scale)


DEFAULT_CONTEXT = ToleranceContext()


def backend_of(value) -> str:
    if isinstance(value, GaussianRational):
        return EXACT
    if isinstance(value, (complex, float, int)):
        return APPROX
    raise BackendMismatch(f"not a scalar: {value!r}")


def same_backend(*backends: str) -> str:
    first = backends[0]
    for b in backends[1:]:
        if b != first:
            raise BackendMismatch(f"mixed scalar backends: {backends}")
    return first
