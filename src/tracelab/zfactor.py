"""Factoring polynomials over the integers (Zassenhaus 1969).

A polynomial is a list of Python ints, highest power first, with a nonzero
leading coefficient; ``[]`` is zero.  ``factor_list`` follows von zur
Gathen & Gerhard, *Modern Computer Algebra*, ch. 14-15:

1. the content, then Yun's squarefree parts over Z (primitive gcds);
2. per part, odd primes p that divide neither its leading coefficient nor
   its discriminant (the part stays squarefree mod p); of the first
   ``PRIMES_TRIED`` such primes the one whose distinct-degree split counts
   the fewest factors is kept, and the search stops at a count of two
   (one proves irreducibility; an abelian Galois group never gives one);
3. the factors mod p by distinct-degree, then equal-degree factorisation
   (Cantor-Zassenhaus, drawing from a fixed seed);
4. multifactor Hensel lifting (a factor tree of quadratic steps) to a
   modulus p^(2^k) past twice the Mignotte bound;
5. recombination over subsets of increasing size, each screened by the
   constant-term divisibility test before a trial division.

Recombination can take 2^(r-1) subsets for r modular factors, so a part
with more than ``MAX_MODULAR_FACTORS`` of them at the best prime raises
``SizeLimit`` before any lifting.
"""

from __future__ import annotations

import math
import random
from itertools import combinations

from .errors import SizeLimit

# An irreducible part with r modular factors costs sum_{k <= r/2} C(r, k)
# constant-term tests: the degree-32 Swinnerton-Dyer polynomial (r = 16)
# factors in 0.3 s on one Xeon core, so this cap costs seconds at worst
MAX_MODULAR_FACTORS = 20
PRIMES_TRIED = 5


# -- integer polynomials ------------------------------------------------------


def _strip(f):
    k = 0
    while k < len(f) and not f[k]:
        k += 1
    return f[k:]


def _primitive(f):
    """``f`` over its content, with a positive leading coefficient."""
    c = math.gcd(*f)
    if f[0] < 0:
        c = -c
    return [a // c for a in f]


def _derivative(f):
    n = len(f) - 1
    return [a * (n - k) for k, a in enumerate(f[:-1])]


def _add(a, b):
    if len(a) < len(b):
        a, b = b, a
    lead = len(a) - len(b)
    return _strip(a[:lead] + [x + y for x, y in zip(a[lead:], b)])


def _sub(a, b):
    return _add(a, [-c for c in b])


def _mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _prem(a, b):
    """The pseudo-remainder of ``a`` by ``b``: lc(b)^(deg a - deg b + 1) a
    reduced by ``b`` without leaving Z."""
    r = list(a)
    lead, db = b[0], len(b) - 1
    for k in range(len(r) - db):
        q = r[k]
        if q:
            for j in range(k + 1, len(r)):
                r[j] *= lead
            for j in range(1, db + 1):
                r[k + j] -= q * b[j]
    return _strip(r[len(r) - db :])


def _gcd(a, b):
    """Primitive gcd with a positive leading coefficient, by the primitive
    pseudo-remainder sequence; ``a`` is nonzero, ``b`` may be zero."""
    if len(a) < len(b):
        a, b = b, a
    a = _primitive(a)
    if not b:
        return a
    b = _primitive(b)
    while len(b) > 1:
        r = _prem(a, b)
        if not r:
            return b
        a, b = b, _primitive(r)
    return [1]


def _divexact(a, b):
    """``a / b`` in Z[x], or None when ``b`` does not divide ``a`` there."""
    if not a:
        return []
    if len(a) < len(b):
        return None
    r = list(a)
    lead, db = b[0], len(b) - 1
    quot = []
    for k in range(len(r) - db):
        q, rem = divmod(r[k], lead)
        if rem:
            return None
        quot.append(q)
        if q:
            for j in range(1, db + 1):
                r[k + j] -= q * b[j]
    return None if any(r[len(r) - db :]) else quot


def is_squarefree(f) -> bool:
    """True iff gcd(f, f') is constant, for ``f`` of positive degree."""
    return len(_gcd(f, _derivative(f))) == 1


def _squarefree_parts(f):
    """Yun's algorithm over Z: primitive ``f`` of positive degree as
    ``(part, multiplicity)`` pairs, the parts primitive, squarefree,
    pairwise coprime and nonconstant."""
    df = _derivative(f)
    a = _gcd(f, df)
    b = _divexact(f, a)
    d = _sub(_divexact(df, a), _derivative(b))
    out = []
    mult = 1
    while len(b) > 1:
        a = _gcd(b, d)
        b = _divexact(b, a)
        d = _sub(_divexact(d, a), _derivative(b))
        if len(a) > 1:
            out.append((a, mult))
        mult += 1
    return out


# -- polynomials mod m --------------------------------------------------------
#
# Coefficients lie in [0, m); the leading coefficient of a divisor is a unit
# mod m.


def _reduce(f, m):
    return _strip([c % m for c in f])


def _mul_mod(a, b, m):
    return _reduce(_mul(a, b), m)


def _sub_mod(a, b, m):
    return _reduce(_sub(a, b), m)


def _divmod_mod(a, b, m):
    if len(a) < len(b):
        return [], a
    inv = pow(b[0], -1, m)
    r = list(a)
    tail = b[1:]
    db = len(tail)
    quot = []
    for k in range(len(r) - db):
        q = r[k] * inv % m
        quot.append(q)
        if q:
            for j in range(1, db + 1):
                r[k + j] = (r[k + j] - q * b[j]) % m
    return quot, _strip(r[len(r) - db :])


def _monic_mod(f, p):
    inv = pow(f[0], -1, p)
    return [c * inv % p for c in f]


def _gcd_mod(a, b, p):
    """Monic gcd mod a prime ``p``."""
    while b:
        a, b = b, _divmod_mod(a, b, p)[1]
    return _monic_mod(a, p)


def _xgcd_mod(a, b, p):
    """``(s, t)`` with s a + t b = 1 mod ``p``, deg s < deg b and
    deg t < deg a, for ``a`` and ``b`` coprime mod ``p``."""
    r0, r1 = a, b
    s0, s1, t0, t1 = [1], [], [], [1]
    while r1:
        q, r = _divmod_mod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _sub_mod(s0, _mul_mod(q, s1, p), p)
        t0, t1 = t1, _sub_mod(t0, _mul_mod(q, t1, p), p)
    inv = pow(r0[0], -1, p)
    return [c * inv % p for c in s0], [c * inv % p for c in t0]


def _powmod(a, e, f, p):
    """``a^e`` mod ``f`` and ``p`` by repeated squaring."""
    out = [1]
    while e:
        if e & 1:
            out = _divmod_mod(_mul_mod(out, a, p), f, p)[1]
        e >>= 1
        if e:
            a = _divmod_mod(_mul_mod(a, a, p), f, p)[1]
    return out


# -- factoring mod p ----------------------------------------------------------


def _odd_primes():
    p = 3
    while True:
        if all(p % q for q in range(3, math.isqrt(p) + 1, 2)):
            yield p
        p += 2


def _distinct_degree(f, p):
    """``[(d, product of the degree-d factors)]`` of a monic squarefree
    ``f`` mod ``p`` (vzGG Algorithm 14.3)."""
    x = [1, 0]
    h = x
    out = []
    d = 0
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        h = _powmod(h, p, f, p)
        g = _gcd_mod(_sub_mod(h, x, p), f, p)
        if len(g) > 1:
            out.append((d, g))
            f = _divmod_mod(f, g, p)[0]
            h = _divmod_mod(h, f, p)[1]
    if len(f) > 1:
        out.append((len(f) - 1, f))
    return out


def _equal_degree(f, d, p, rng):
    """The monic degree-``d`` factors of ``f``, a product of such factors
    mod an odd prime ``p`` (Cantor-Zassenhaus, vzGG Algorithm 14.8)."""
    n = len(f) - 1
    if n == d:
        return [f]
    e = (p**d - 1) // 2
    while True:
        a = _strip([rng.randrange(p) for _ in range(n)])
        if len(a) < 2:
            continue
        g = _gcd_mod(a, f, p)
        if len(g) == 1:
            g = _gcd_mod(_sub_mod(_powmod(a, e, f, p), [1], p), f, p)
        if 1 < len(g) < len(f):
            break
    return _equal_degree(g, d, p, rng) + _equal_degree(_divmod_mod(f, g, p)[0], d, p, rng)


def _modular_factors(f):
    """``(p, monic factors of f mod p)`` at the best of up to
    ``PRIMES_TRIED`` primes that keep ``f`` squarefree and its degree."""
    best = None
    tried = 0
    for p in _odd_primes():
        if f[0] % p == 0:
            continue
        fp = _monic_mod(f, p)
        if len(_gcd_mod(fp, _reduce(_derivative(fp), p), p)) > 1:
            continue
        split = _distinct_degree(fp, p)
        count = sum((len(g) - 1) // d for d, g in split)
        if best is None or count < best[0]:
            best = (count, p, split)
        tried += 1
        if count <= 2 or tried == PRIMES_TRIED:
            break
    count, p, split = best
    if count > MAX_MODULAR_FACTORS:
        raise SizeLimit(
            f"degree-{len(f) - 1} integer polynomial has {count} factors mod {p}, "
            f"more than {MAX_MODULAR_FACTORS}"
        )
    rng = random.Random(0)
    return p, sorted(u for d, g in split for u in _equal_degree(g, d, p, rng))


# -- Hensel lifting and recombination -----------------------------------------


def _hensel_step(f, g, h, s, t, m):
    """vzGG Algorithm 15.10: from f = g h and s g + t h = 1 mod ``m``, with
    ``h`` monic, the same identities mod m^2."""
    mm = m * m
    e = _sub_mod(f, _mul(g, h), mm)
    q, r = _divmod_mod(_mul_mod(s, e, mm), h, mm)
    g = _reduce(_add(g, _add(_mul(t, e), _mul(q, g))), mm)
    h = _reduce(_add(h, r), mm)
    b = _reduce(_sub(_add(_mul(s, g), _mul(t, h)), [1]), mm)
    c, d = _divmod_mod(_mul_mod(s, b, mm), h, mm)
    s = _sub_mod(s, d, mm)
    t = _reduce(_sub(t, _add(_mul(t, b), _mul(c, g))), mm)
    return g, h, s, t


def _hensel_lift(f, factors, p, modulus):
    """Monic factors mod ``modulus`` = p^(2^k) of ``f``, lifted from its
    monic ``factors`` mod ``p`` (lc(f) times their product is f mod p) by
    a balanced factor tree (vzGG Algorithm 15.17)."""
    if len(factors) == 1:
        inv = pow(f[0], -1, modulus)
        return [_reduce([c * inv for c in f], modulus)]
    k = len(factors) // 2
    g = [f[0] % p]
    for u in factors[:k]:
        g = _mul_mod(g, u, p)
    h = [1]
    for u in factors[k:]:
        h = _mul_mod(h, u, p)
    s, t = _xgcd_mod(g, h, p)
    m = p
    while m < modulus:
        g, h, s, t = _hensel_step(f, g, h, s, t, m)
        m *= m
    return _hensel_lift(g, factors[:k], p, modulus) + _hensel_lift(h, factors[k:], p, modulus)


def _irreducible_factors(f):
    """Irreducible factors over Z of a primitive squarefree ``f`` with a
    positive leading coefficient."""
    n = len(f) - 1
    if n <= 1:
        return [f]
    p, factors = _modular_factors(f)
    if len(factors) == 1:
        return [f]
    # Mignotte: a factor of f has coefficients at most 2^n ||f||_2; times
    # |lc(f)| for the candidates, which carry f's leading coefficient
    bound = abs(f[0]) * 2**n * (math.isqrt(n + 1) + 1) * max(abs(c) for c in f)
    modulus = p
    while modulus <= 2 * bound:
        modulus *= modulus
    lifted = _hensel_lift(f, factors, p, modulus)

    def symmetric(c):
        c %= modulus
        return c - modulus if 2 * c > modulus else c

    found = []
    left = list(range(len(lifted)))
    size = 1
    while 2 * size <= len(left):
        lead, tail = f[0], f[-1]
        for subset in combinations(left, size):
            # a true factor g gives the candidate lc(f)/lc(g) * g, whose
            # constant term divides lc(f) * f(0)
            const = lead
            for i in subset:
                const = const * lifted[i][-1] % modulus
            const = symmetric(const)
            if tail and (const == 0 or (lead * tail) % const):
                continue
            cand = [lead]
            for i in subset:
                cand = _mul_mod(cand, lifted[i], modulus)
            g = _primitive([symmetric(c) for c in cand])
            q = _divexact(f, g)
            if q is not None:
                found.append(g)
                f = q
                left = [i for i in left if i not in subset]
                break
        else:
            size += 1
    return found + [f]


def factor_list(f):
    """``(content, [(factor, multiplicity)])`` of an integer polynomial:
    the content carries the sign, the factors are primitive and
    irreducible with positive leading coefficients, sorted by degree, then
    coefficients."""
    f = _strip(list(f))
    if len(f) <= 1:
        return (f[0] if f else 0), []
    primitive = _primitive(f)
    out = [
        (g, mult)
        for part, mult in _squarefree_parts(primitive)
        for g in _irreducible_factors(part)
    ]
    out.sort(key=lambda item: (len(item[0]), item[0]))
    return f[0] // primitive[0], out
