"""The samplers build their factors from integer pairs; each matrix must be
the one the public constructors build from the same draws."""

import random
from fractions import Fraction

import pytest

from steinwhit.padic import PAdicMatrix
from steinwhit.sampling import random_group_element, random_iwahori, random_torus_units, random_upper_unipotent


def _unit(rng, p):
    while True:
        a = rng.randint(1, p * p)
        if a % p:
            break
    while True:
        b = rng.randint(1, p * p)
        if b % p:
            break
    sign = -1 if rng.random() < 0.5 else 1
    return Fraction(sign * a, b)


def _upper_unipotent(rng, n, p, depth=2):
    rows = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            den = p ** rng.randint(0, depth)
            rows[i][j] = Fraction(rng.randint(-(p**depth), p**depth), den)
    return PAdicMatrix.from_rows(p, rows)


def _torus_units(rng, n, p):
    return PAdicMatrix.diagonal(p, [_unit(rng, p) for _ in range(n)])


def _iwahori(rng, n, p):
    upper = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    lower = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            upper[i][j] = Fraction(rng.randint(-(p**2), p**2))
            lower[j][i] = Fraction(p * rng.randint(-p, p))
    return PAdicMatrix.from_rows(p, upper) * _torus_units(rng, n, p) * PAdicMatrix.from_rows(p, lower)


def _same(got, want):
    assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
    assert got.rows == PAdicMatrix(got.p, got.entries).rows


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_samplers_equal_their_copies_through_the_public_constructors(n, p):
    for seed in range(50):
        for sampler, oracle in ((random_upper_unipotent, _upper_unipotent), (random_torus_units, _torus_units),
                                (random_iwahori, _iwahori)):
            rng, copy_rng = random.Random(seed), random.Random(seed)
            _same(sampler(rng, n, p), oracle(copy_rng, n, p))
            assert rng.getstate() == copy_rng.getstate()  # the same draws, in the same order


def test_sampled_points_are_frozen():
    """Two sampled points, as the verification suites draw them."""
    rng = random.Random(0)
    assert repr(random_group_element(rng, 2, 3)) == "PAdicMatrix(p=3, [-6787/112 -927/56; -345/16 -45/8])"
    assert repr(random_group_element(rng, 3, 2)) == (
        "PAdicMatrix(p=2, [-29/9 55/36 -17/36; -7/3 4/3 -1/2; -8/9 4/9 -2/9])"
    )
