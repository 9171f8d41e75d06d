"""Deterministic random matrices for verification sampling.

All generators take an explicit ``random.Random`` so that a fixed seed
reproduces the exact same matrices across runs and platforms.  Sampled
group elements are built as structured products

    upper-unipotent . torus . permutation . Iwahori,

which keeps the true cell label (kbar, w) known by construction.  The
factors are built from integer pairs straight into the canonical rows of
``PAdicMatrix`` (``padic._row_of``), with no ``Fraction`` in between.
Each product is one ``padic._combined``.  The verification suites draw a
fresh point per sample in every call, so the samplers run on the
``verify`` path.

Every sampler checks rng by the class rule (a ``random.Random``), and the
three matrix builders check n (an ``int`` >= 1) and p (a prime ``int``)
too, before any draw, so that no p makes ``_random_unit`` loop forever
and every matrix is one that ``PAdicMatrix`` allows.  The checks draw
nothing from rng, so a seed's matrices do not depend on them.
"""

from __future__ import annotations

import random

from .padic import Cell, DecompositionError, PAdicMatrix, _check_prime, _combined, _row_of
from .weyl import Permutation, Weight, _check_int, _check_type

__all__ = [
    "random_cell_product",
    "random_group_element",
    "random_iwahori",
    "random_permutation",
    "random_torus_units",
    "random_upper_unipotent",
    "random_weight",
]


def random_permutation(rng: random.Random, n: int) -> Permutation:
    _check_type("rng", rng, random.Random)
    window = list(range(1, n + 1))
    rng.shuffle(window)
    return Permutation(tuple(window))


def random_weight(rng: random.Random, n: int, lo: int = -2, hi: int = 2) -> Weight:
    _check_type("rng", rng, random.Random)
    return tuple(rng.randint(lo, hi) for _ in range(n))


def _check_builder(rng: random.Random, n: int, p: int) -> None:
    """The matrix builders' one check: rng a ``random.Random``, n an ``int``
    >= 1 and p a prime ``int`` (else TypeError, ValueError)."""
    _check_type("rng", rng, random.Random)
    _check_int("n", n, 1)
    _check_prime(p)


def _random_unit(rng: random.Random, p: int) -> tuple[int, int]:
    """A random p-adic unit with small numerator and denominator, as the
    integer pair (numerator, denominator > 0), not in lowest terms."""
    while True:
        a = rng.randint(1, p * p)
        if a % p:
            break
    while True:
        b = rng.randint(1, p * p)
        if b % p:
            break
    sign = -1 if rng.random() < 0.5 else 1
    return sign * a, b


def random_upper_unipotent(rng: random.Random, n: int, p: int) -> PAdicMatrix:
    """Upper unitriangular matrix whose entries above the diagonal are
    a / p^k, with |a| <= p^2 and 0 <= k <= 2."""
    _check_builder(rng, n, p)
    rows = []
    for i in range(n):
        pairs = [(int(i == j), 1) for j in range(i + 1)]
        for _ in range(i + 1, n):
            den = p ** rng.randint(0, 2)
            pairs.append((rng.randint(-(p**2), p**2), den))
        rows.append(_row_of(pairs))
    return PAdicMatrix._of_rows(p, tuple(rows))


def random_torus_units(rng: random.Random, n: int, p: int) -> PAdicMatrix:
    _check_builder(rng, n, p)
    units = [_random_unit(rng, p) for _ in range(n)]
    return PAdicMatrix._of_rows(p, tuple(
        _row_of([unit if i == j else (0, 1) for j in range(n)]) for i, unit in enumerate(units)
    ))


def random_iwahori(rng: random.Random, n: int, p: int) -> PAdicMatrix:
    """Random element of the Iwahori subgroup, as N_O . T_O . N^-_pO.

    The units are drawn as ``random_torus_units`` draws them; row k of
    T_O . N^-_pO is u_k times row k of the lower factor, so the product is
    one ``padic._combined`` of the upper rows with those rows."""
    _check_builder(rng, n, p)
    upper = [[int(i == j) for j in range(n)] for i in range(n)]
    lower = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            upper[i][j] = rng.randint(-(p**2), p**2)
            lower[j][i] = p * rng.randint(-p, p)
    units_lower = [([x * num for x in row], den) for row, (num, den) in
                   zip(lower, [_random_unit(rng, p) for _ in range(n)])]
    out = PAdicMatrix._of_rows(p, _combined([(row, 1) for row in upper], units_lower))
    if not out.is_in_iwahori():
        raise DecompositionError(f"N_O . T_O . N^-_pO product left the Iwahori subgroup: {out!r}")
    return out


def random_cell_product(
    rng: random.Random,
    n: int,
    p: int,
    weight_range: int = 2,
) -> tuple[PAdicMatrix, Weight, Permutation]:
    """A structured product together with its cell label.

    Returns (g, kbar, w) with g = upper . units . diag(p^kbar) . P_w . j;
    the cell decomposition of g must recover exactly this (kbar, w).  The
    factors are drawn in that order and g is built by ``Cell.reconstruct``,
    with one matrix product.
    """
    kbar = random_weight(rng, n, -weight_range, weight_range)
    w = random_permutation(rng, n)
    upper = random_upper_unipotent(rng, n, p)
    units = random_torus_units(rng, n, p)
    g = Cell(kbar, w, upper, units, random_iwahori(rng, n, p)).reconstruct()
    return g, kbar, w


def random_group_element(rng: random.Random, n: int, p: int) -> PAdicMatrix:
    return random_cell_product(rng, n, p)[0]
