"""Seeded scenario generators for the five benchmark workloads.

Every workload is a list of items.  An item carries the scenario JSON text
that is fed to ``reporting.parse_scenario`` and the oracle its outcome is
checked against (see ``oracle.py``).  Nothing here imports ``tracelab`` or
the test suite: the inputs depend only on this file and the seed, so an
edit to the program or to its tests cannot change what is measured.

Exact scalars are written as rational strings ("3/2-1/4i"), exactly as
scenario files carry them.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("suite", "ladder-exact", "ladder-approx", "filtration", "oversize")

# The ladders draw their test function from a fixed pool of variants so
# that every exact item has a stored byte-for-byte reference.
LADDER_VARIANTS = 8
LADDER_EXACT_N = (5, 7, 9)
LADDER_APPROX_N = (8, 10, 12)

# S4 on {0,1,2,3}: a transposition and a 4-cycle generate it.
S4_GENERATORS = [[1, 0, 2, 3], [1, 2, 3, 0]]
S4_IDENTITY = [0, 1, 2, 3]
# S5 on {0,...,4}: a transposition and a 5-cycle generate it.
S5_GENERATORS = [[1, 0, 2, 3, 4], [1, 2, 3, 4, 0]]
S5_ORDER = 120

# Dimension and generator count of each filtration item.  Which pool
# entries an item stacks is drawn from a stream fixed per item, and only
# the couplings, the conjugation and the scalars follow the seed, so that
# the work per pass barely depends on the seed.
FILTRATION_SHAPES = (
    (3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (4, 3), (5, 2),
) * 2


# -- Gaussian rationals as (re, im) pairs of Fractions -------------------------

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))


def g(re, im=0):
    return (Fraction(re), Fraction(im))


def g_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def g_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def g_inv(x):
    norm = x[0] * x[0] + x[1] * x[1]
    return (x[0] / norm, -x[1] / norm)


def g_text(x) -> str:
    re, im = x
    if im == 0:
        return str(re)
    im_text = f"{abs(im)}i"
    if re == 0:
        return ("-" if im < 0 else "") + im_text
    return f"{re}{'-' if im < 0 else '+'}{im_text}"


def m_identity(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def m_mul(a, b):
    cols = list(zip(*b))
    out = []
    for row in a:
        out_row = []
        for col in cols:
            acc = ZERO
            for x, y in zip(row, col):
                if (x[0] or x[1]) and (y[0] or y[1]):
                    acc = g_add(acc, g_mul(x, y))
            out_row.append(acc)
        out.append(out_row)
    return out


def m_add(a, b):
    return [[g_add(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def m_inverse(a):
    """Gauss-Jordan inverse; the inputs here are always invertible."""
    n = len(a)
    rows = [list(row) + list(ident) for row, ident in zip(a, m_identity(n))]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != ZERO)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = g_inv(rows[col][col])
        rows[col] = [g_mul(inv, x) for x in rows[col]]
        for r in range(n):
            factor = rows[r][col]
            if r != col and factor != ZERO:
                rows[r] = [
                    g_add(x, g_mul((-factor[0], -factor[1]), y))
                    for x, y in zip(rows[r], rows[col])
                ]
    return [row[n:] for row in rows]


def m_text(a):
    return [[g_text(x) for x in row] for row in a]


def _rational_square(q: Fraction) -> bool:
    if q < 0:
        return False
    p, d = q.numerator, q.denominator
    return math.isqrt(p) ** 2 == p and math.isqrt(d) ** 2 == d


def _rational_sqrt(q: Fraction) -> Fraction:
    return Fraction(math.isqrt(q.numerator), math.isqrt(q.denominator))


def is_square_in_qi(z) -> bool:
    """Does z = x + iy have a square root in Q(i)?

    (u + iv)^2 = z needs |z| = sqrt(x^2 + y^2) rational, and then
    u^2 = (x + |z|) / 2 and v^2 = (|z| - x) / 2 rational squares; the sign
    of v is free, so 2uv = y can always be met.
    """
    x, y = z
    norm2 = x * x + y * y
    if not _rational_square(norm2):
        return False
    r = _rational_sqrt(norm2)
    return _rational_square((x + r) / 2) and _rational_square((r - x) / 2)


def spectrum_in_qi(block) -> bool:
    """Eigenvalues of a 1x1 or 2x2 Gaussian-rational block lie in Q(i)."""
    if len(block) == 1:
        return True
    (a, b), (c, d) = block
    trace = g_add(a, d)
    det = g_add(g_mul(a, d), g_mul((-b[0], -b[1]), c))
    disc = g_add(g_mul(trace, trace), g_mul(g(-4), det))
    return is_square_in_qi(disc)


# -- the filtration pool -----------------------------------------------------


def _int_matrix(rows):
    return [[g(x) for x in row] for row in rows]


ROT3 = _int_matrix([[0, -1], [1, -1]])
SWAP = _int_matrix([[0, 1], [1, 0]])
STRETCH = _int_matrix([[2, 0], [0, 1]])
SHEAR = _int_matrix([[1, 1], [0, -1]])

# Irreducible building blocks: tuples of three generator images (a model
# with k generators takes the first k).  Characters, and two 2-dim blocks.
POOL = (
    tuple(_int_matrix([[v]]) for v in (1, 1, 1)),
    tuple(_int_matrix([[v]]) for v in (-1, 1, -1)),
    tuple(_int_matrix([[v]]) for v in (2, 1, 1)),
    tuple(_int_matrix([[v]]) for v in (1, -1, 2)),
    ([[g(0, 1)]], [[g(1)]], [[g(0, -1)]]),
    (ROT3, SWAP, STRETCH),
    (SWAP, SHEAR, ROT3),
)

# Entries usable with k generators: prefixes pairwise distinct (hence
# pairwise non-isomorphic) and irreducible.  With one generator, entry 3
# repeats entry 0's prefix and SWAP alone has the rational eigenlines
# (1, 1) and (1, -1); ROT3 has no eigenvalue in Q(i).  With two or three
# generators, (SWAP, SHEAR) moves both eigenlines of SWAP, so every entry
# qualifies.
USABLE = {1: (0, 1, 2, 4, 5), 2: tuple(range(7)), 3: tuple(range(7))}


def _block_dim(idx):
    return len(POOL[idx][0])


def _draw_picks(rng, dim, n_gens):
    usable = USABLE[n_gens]
    picks, total = [], 0
    while total < dim:
        fitting = [i for i in usable if total + _block_dim(i) <= dim]
        idx = rng.choice(fitting)
        picks.append(idx)
        total += _block_dim(idx)
    rng.shuffle(picks)
    return picks


def _random_unimodular(dim, rng):
    rows = m_identity(dim)
    for _ in range(2 * dim):
        i, j = rng.randrange(dim), rng.randrange(dim)
        if i == j:
            continue
        c = g(rng.choice([-1, 1]), rng.choice([-1, 0, 1]))
        rows[i] = [g_add(a, g_mul(c, b)) for a, b in zip(rows[i], rows[j])]
    return rows


def _block_triangular(picks, g_idx, rng):
    dim = sum(_block_dim(i) for i in picks)
    grid = [[ZERO] * dim for _ in range(dim)]
    offsets, at = [], 0
    for idx in picks:
        block = POOL[idx][g_idx]
        offsets.append(at)
        for i, row in enumerate(block):
            for j, x in enumerate(row):
                grid[at + i][at + j] = x
        at += len(block)
    # random coupling strictly above the block diagonal
    for bi in range(len(picks)):
        for bj in range(bi + 1, len(picks)):
            for i in range(_block_dim(picks[bi])):
                for j in range(_block_dim(picks[bj])):
                    if rng.random() < 0.5:
                        grid[offsets[bi] + i][offsets[bj] + j] = g(
                            rng.choice([-1, 0, 1, 2]), rng.choice([-1, 0, 1])
                        )
    return grid


def _delta_blocks_in_field(picks, n_gens):
    """Delta = sum of g + g^-1 is block triangular in the construction
    basis, so its spectrum is the union of the diagonal blocks' spectra."""
    for idx in set(picks):
        gens = POOL[idx][:n_gens]
        block = [[ZERO] * _block_dim(idx) for _ in range(_block_dim(idx))]
        for b in gens:
            block = m_add(block, m_add(b, m_inverse(b)))
        if not spectrum_in_qi(block):
            return False
    return True


def filtration_item(rng, shape_rng, dim, n_gens, scalar_delta, number):
    """A random exact spectral-model scenario with a known multiplicity table.

    Block upper-triangular stacking of pool entries leaves the composition
    factors equal to the diagonal blocks; a unimodular conjugation hides
    the construction.  Draws whose delta spectrum leaves Q(i) are redrawn,
    so every item is valid input that is expected to pass.
    """
    redraws = 0
    while True:
        picks = _draw_picks(shape_rng, dim, n_gens)
        if scalar_delta or _delta_blocks_in_field(picks, n_gens):
            break
        redraws += 1
    blocks = [_block_triangular(picks, k, rng) for k in range(n_gens)]
    s = _random_unimodular(dim, rng)
    s_inv = m_inverse(s)
    gens = [m_mul(m_mul(s_inv, b), s) for b in blocks]
    if scalar_delta:
        value = g(rng.randint(-3, 3), rng.randint(-2, 2))
        delta = {"scalar": g_text(value)}
    else:
        total = [[ZERO] * dim for _ in range(dim)]
        for b in blocks:
            total = m_add(total, m_add(b, m_inverse(b)))
        delta = m_text(m_mul(m_mul(s_inv, total), s))
    content = {}
    for idx in picks:
        content[idx] = content.get(idx, 0) + 1
    scenario = {
        "id": f"filtration-{number:02d}-{dim}d-{n_gens}g",
        "case": "spectral-model",
        "backend": "exact",
        "seed": rng.randrange(1 << 16),
        "generators": [m_text(x) for x in gens],
        "delta": delta,
    }
    expected = sorted([_block_dim(idx), count] for idx, count in content.items())
    oracle = {
        "kind": "multiplicity",
        "multiplicities": expected,
        "length": len(picks),
    }
    return _item(scenario, oracle), redraws


# -- the other workloads -----------------------------------------------------


def _item(scenario, oracle):
    return {
        "id": scenario["id"],
        "text": json.dumps(scenario, sort_keys=True),
        "oracle": oracle,
    }


def _coefficient(rng):
    return g_text(g(Fraction(rng.randint(-4, 4) or 1, rng.choice([1, 1, 2, 3])),
                    rng.choice([0, 0, 1, -1])))


def cyclic_jordan(n, backend, variant):
    """Z/nZ (the lattice nZ in Z) with the unipotent 2x2 Jordan twist."""
    rng = random.Random(f"ladder:{variant}:{n}")
    elements = rng.sample([0, 1, -1, 2, n, -n, 2 * n, n + 1, 3 * n], 4)
    return {
        "id": f"z{n}-J2-{backend}-v{variant}",
        "case": "discrete",
        "backend": backend,
        "group": {"family": "free_abelian", "rank": 1},
        "subgroup": {"lattice_basis": [[n]], "name": f"{n}Z"},
        "twist": {"images": [[["1", "1"], ["0", "1"]]], "label": "J2"},
        "test_function": {"support": [[[k], _coefficient(rng)] for k in elements]},
    }


def s4_induced(subgroup_gens, tag, backend, variant):
    """Induction of the trivial character from a subgroup of S4.

    The test function's support holds the identity, with a nonzero
    coefficient: in the regular representation only the identity has a
    nonzero trace, so the trace the oracle checks is never 0."""
    rng = random.Random(f"ladder:{variant}:{tag}")
    elements = [S4_IDENTITY]
    while len(elements) < 3:
        p = rng.sample(range(4), 4)
        if p not in elements:
            elements.append(p)
    return {
        "id": f"{tag}-{backend}-v{variant}",
        "case": "discrete",
        "backend": backend,
        "group": {"family": "finite", "generators": S4_GENERATORS, "name": "S4"},
        "subgroup": {"generators": subgroup_gens, "name": tag},
        "twist": {"images": [[["1"]]] * len(subgroup_gens), "label": "1"},
        "test_function": {"support": [[p, _coefficient(rng)] for p in elements]},
    }


def ladder_scenarios(backend, variant):
    if backend == "exact":
        out = [cyclic_jordan(n, backend, variant) for n in LADDER_EXACT_N]
        # S4 acting on the 12 cosets of a transposition: matmul-heavy,
        # every factor absolutely irreducible
        out.append(s4_induced([[1, 0, 2, 3]], "s4-c2", backend, variant))
        return out
    out = [cyclic_jordan(n, backend, variant) for n in LADDER_APPROX_N]
    # the regular representation of S4, dim 24
    out.append(s4_induced([S4_IDENTITY], "s4-regular", backend, variant))
    return out


def _unipotent(dim, rng, band):
    """Random upper unitriangular Gaussian-integer matrix (det 1), with
    random entries on the first ``band`` superdiagonals."""
    return [
        [
            "1" if i == j
            else (g_text(g(rng.randint(-1, 1), rng.randint(-1, 1))) if 0 < j - i <= band else "0")
            for j in range(dim)
        ]
        for i in range(dim)
    ]


def oversize_scenarios(rng):
    """Discrete scenarios whose induced dimension exceeds 2000."""
    items = []
    twist = _unipotent(21, rng, 21)
    items.append({
        "id": "oversize-lattice-100x21",
        "case": "discrete",
        "group": {"family": "free_abelian", "rank": 1},
        "subgroup": {"lattice_basis": [[100]]},
        "twist": {"images": [twist]},
        "test_function": {"support": [[[rng.randint(-300, 300)], "1"], [[0], "2"]]},
    })
    twist = _unipotent(36, rng, 36)
    items.append({
        "id": "oversize-lattice-4x14x36",
        "case": "discrete",
        "group": {"family": "free_abelian", "rank": 2},
        "subgroup": {"lattice_basis": [[4, 0], [0, 14]]},
        # a matrix commutes with itself, as lattice twists must
        "twist": {"images": [twist, twist]},
        "test_function": {"support": [[[rng.randint(-20, 20), rng.randint(-20, 20)], "1"]]},
    })
    # the kernel of F2 -> S5 is free on index * (rank - 1) + 1 Schreier
    # generators, each needing an image (bidiagonal, so that the subgroup
    # and not the twist dominates)
    items.append({
        "id": "oversize-kernel-s5x17",
        "case": "discrete",
        "group": {"family": "free", "rank": 2},
        "subgroup": {
            "quotient": {"family": "finite", "generators": S5_GENERATORS, "name": "S5"},
            "images": S5_GENERATORS,
        },
        "twist": {"images": [_unipotent(17, rng, 1) for _ in range(S5_ORDER + 1)]},
        "test_function": {"support": [[[1, 2, -1], "1"], [[], "3"]]},
    })
    for scenario in items:
        scenario["backend"] = "exact"
    return [_item(s, {"kind": "size-limit"}) for s in items]


def suite_scenarios(scenario_dir: Path):
    """The bundled scenarios, in the order ``tracelab suite`` runs them."""
    items = []
    for path in sorted(scenario_dir.glob("*.json"), key=lambda p: str(p)):
        text = path.read_text(encoding="utf-8")
        scenario_id = json.loads(text)["id"]
        items.append({"id": scenario_id, "text": text, "oracle": {"kind": "reference"}})
    return items


def generate(workload: str, seed: int, scenario_dir: Path):
    """(items, notes) for one workload at one seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "suite":
        return suite_scenarios(scenario_dir), {"seed_use": "none: the suite is fixed"}
    if workload in ("ladder-exact", "ladder-approx"):
        variant = seed % LADDER_VARIANTS
        backend = "exact" if workload == "ladder-exact" else "approx"
        kind = "reference" if backend == "exact" else "approx-reference"
        items = [_item(s, {"kind": kind}) for s in ladder_scenarios(backend, variant)]
        return items, {"seed_use": f"test-function variant {variant} of {LADDER_VARIANTS}"}
    if workload == "filtration":
        items, redraws = [], 0
        for number, (dim, n_gens) in enumerate(FILTRATION_SHAPES):
            shape_rng = random.Random(f"filtration-shape:{number}")
            item, r = filtration_item(rng, shape_rng, dim, n_gens, number % 2 == 0, number)
            items.append(item)
            redraws += r
        return items, {"seed_use": "couplings, conjugations, scalars", "redraws": redraws}
    if workload == "oversize":
        return oversize_scenarios(rng), {"seed_use": "twist entries, test functions"}
    raise ValueError(f"unknown workload {workload!r}")
