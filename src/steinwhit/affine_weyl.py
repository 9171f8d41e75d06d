"""Extended affine Weyl group of GL(n): Z^n semidirect S_n.

An element is a pair (lam, w) acting as the matrix diag(p^lam) P_w, and
the group law matches matrix multiplication of those realizations:

    (lam, w) (mu, v) = (lam + w.mu, w v),   (w.mu)_i = mu_{w^{-1}(i)}.

Generators: the simple reflections s_1, ..., s_{n-1} of S_n, the affine
reflection s_0 = ((-1, 0, ..., 0, 1), (1 n)), and the rotation element
r = ((0, ..., 0, 1), (n, 1, 2, ..., n-1)) of length zero, whose n-th
power is the central translation by (1, ..., 1).  Conjugation cycles the
reflections: r^{-1} s_i r = s_{(i+1) mod n}.

>>> u = ExtAffineElement.rotation(3)
>>> s = ExtAffineElement.simple_reflection
>>> all(u.inverse() * s(3, i) * u == s(3, (i + 1) % 3) for i in range(3))
True
>>> u**3 == ExtAffineElement.translation((1, 1, 1))
True
>>> length_ext(u), length_ext(s(3, 0)), length_ext(ExtAffineElement.translation((1, 0, 0)))
(0, 1, 2)

Length is the Iwahori–Matsumoto closed form (see ``length_ext``), which
needs O(n^2) steps and ignores right multiplication by the rotation.
Whether s_i is a right ascent reads one pair term of it (``is_ascent``).
``reduced_word`` strips the rotation power by reading the closed form of
r^{-m} inline (no product, no inverse object) and then peels left
descents in place on plain integer lists in one loop, always the
smallest index first, so it returns the lexicographically least reduced
word.

An element is a slotted frozen value (``weyl._FrozenValue``), as its
``Permutation`` is: no instance ``__dict__``, a hash of (lam, window),
and an ``==`` that compares both fields of two elements, each in one
frame.  Entries are validated at the boundary: the public constructors
refuse any entry that is not an ``int`` (``bool`` included), while
products, inverses, powers and ``normalize_central`` build their
results from valid ones, unchecked (``_of``, writing the slots through
their descriptors).  A product is one frame: one class test (another
class gets ``NotImplemented``), one size check, w.mu added in place
(skipped when mu is zero, as for s_1, ..., s_{n-1}), and the windows
composed inline.
The public generators check their arguments (``int`` n and index,
``bool`` refused; n >= 2 for a reflection, n >= 1 for a rotation) and
then cost only their arithmetic: each s_i is built once per
(n, i mod n) and shared, and r^k comes from one closed form
(``_rotation``), which ``hecke.multiply`` calls unchecked.
"""

from __future__ import annotations

import functools

from .padic import PAdicMatrix
from .weyl import Permutation, Weight, _check_int, _check_type, _FrozenValue, _set_window

__all__ = [
    "ExtAffineElement",
    "is_ascent",
    "length_ext",
    "realize",
    "reduced_word",
]


class ExtAffineElement(_FrozenValue):
    """Pair (lam, w) in Z^n semidirect S_n.

    A slotted frozen value: it hashes as (lam, w.window), and it equals
    exactly the elements with the same lam and window (any other class
    gets ``NotImplemented``).
    """

    __slots__ = _fields = ("lam", "w")
    lam: tuple[int, ...]
    w: Permutation

    def __init__(self, lam: tuple[int, ...], w: Permutation) -> None:
        entries = tuple(lam)
        if any(type(c) is not int for c in entries):
            raise TypeError(f"translation entries must be int: {lam!r}")
        if not isinstance(w, Permutation):
            raise TypeError(f"not a Permutation: {w!r}")
        if len(entries) != w.n:
            raise ValueError("translation part and permutation sizes differ")
        _set_lam(self, entries)
        _set_w(self, w)

    @classmethod
    def _of(cls, lam: tuple[int, ...], w: Permutation) -> "ExtAffineElement":
        """Wrap a pair built in this package from valid ones, unchecked."""
        x = object.__new__(cls)
        _set_lam(x, lam)
        _set_w(x, w)
        return x

    def __eq__(self, other: object) -> bool:
        if other.__class__ is ExtAffineElement:
            return self.lam == other.lam and self.w.window == other.w.window
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.lam, self.w.window))

    @property
    def n(self) -> int:
        return len(self.lam)

    @classmethod
    def identity(cls, n: int) -> "ExtAffineElement":
        """The identity of size n, an ``int`` >= 1 (``bool`` refused)."""
        _check_int("n", n, 1)
        return cls((0,) * n, Permutation.identity(n))

    @classmethod
    def translation(cls, kbar: Weight) -> "ExtAffineElement":
        return cls(tuple(kbar), Permutation.identity(len(kbar)))

    @classmethod
    def simple_reflection(cls, n: int, i: int) -> "ExtAffineElement":
        """s_i for i in Z/n: s_0 is the affine reflection.

        One frozen instance per (n, i mod n), shared by every caller.
        """
        _check_int("n", n, 2)
        _check_int("i", i)
        return _simple_reflection(n, i % n)

    @classmethod
    def rotation(cls, n: int, k: int = 1) -> "ExtAffineElement":
        """r^k, from the closed form of ``_rotation``; n is an ``int`` >= 1
        and k an ``int`` (``bool`` refused)."""
        _check_int("n", n, 1)
        _check_int("k", k)
        return _rotation(n, k)

    def __mul__(self, other: "ExtAffineElement") -> "ExtAffineElement":
        """(lam + w.mu, w v) in one frame: mu_j is added into entry w(j) of
        lam in place, unless mu is zero, and the windows are composed inline."""
        if type(other) is not ExtAffineElement:
            return NotImplemented
        lam, mu = self.lam, other.lam
        win, right = self.w.window, other.w.window
        if len(win) != len(right):
            raise ValueError("sizes differ")
        if any(mu):
            lam = list(lam)
            for k, c in zip(win, mu):
                lam[k - 1] += c
            lam = tuple(lam)
        w = object.__new__(Permutation)
        _set_window(w, tuple([win[k - 1] for k in right]))
        x = object.__new__(ExtAffineElement)
        _set_lam(x, lam)
        _set_w(x, w)
        return x

    def inverse(self) -> "ExtAffineElement":
        winv = self.w.inverse()
        lam = tuple([-c for c in winv.act_weight(self.lam)])
        return ExtAffineElement._of(lam, winv)

    def __pow__(self, k: int) -> "ExtAffineElement":
        """By repeated squaring: about 2 log2|k| products; k is an ``int``
        (``bool`` refused)."""
        _check_int("k", k)
        base = self if k >= 0 else self.inverse()
        k = abs(k)
        n = self.n
        out = ExtAffineElement._of((0,) * n, Permutation._of(tuple(range(1, n + 1))))
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def rotation_exponent(self) -> int:
        """Coordinate sum; the power of the rotation element this carries."""
        return sum(self.lam)

    def normalize_central(self) -> tuple["ExtAffineElement", int]:
        """Split off the central translation making the last coordinate 0.

        Returns (y, m) with self == y * translation((m, ..., m)).
        """
        m = self.lam[-1]
        lam = tuple([c - m for c in self.lam])
        return ExtAffineElement._of(lam, self.w), m

    def __repr__(self) -> str:
        return f"ExtAffineElement({self.lam}, {self.w.window})"


# the slots' own setters, so that the constructor, ``_of`` and ``__mul__``
# bypass the frozen ``__setattr__``
_set_lam = ExtAffineElement.lam.__set__
_set_w = ExtAffineElement.w.__set__


def _rotation(n: int, k: int) -> ExtAffineElement:
    """r^k for an ``int`` n >= 1 and ``int`` k, unchecked, in closed form:
    lam_j = floor((k + j - 1) / n) and w(j) = ((j - k - 1) mod n) + 1, so
    r^n is the translation by (1, ..., 1)."""
    lam = tuple([(k + j) // n for j in range(n)])
    window = tuple([(j - k) % n + 1 for j in range(n)])
    return ExtAffineElement._of(lam, Permutation._of(window))


@functools.lru_cache(maxsize=1024)
def _simple_reflection(n: int, i: int) -> ExtAffineElement:
    """s_i for 0 <= i < n, through the validating constructors, once per (n, i)."""
    if i:
        return ExtAffineElement((0,) * n, Permutation.simple(n, i))
    lam = (-1,) + (0,) * (n - 2) + (1,)
    return ExtAffineElement(lam, Permutation.transposition(n, 1, n))


def realize(x: ExtAffineElement, p: int) -> PAdicMatrix:
    """The matrix diag(p^lam) P_w."""
    _check_type("x", x, ExtAffineElement)
    return PAdicMatrix.weight_matrix(p, x.lam) * PAdicMatrix.permutation(p, x.w)


def length_ext(x: ExtAffineElement) -> int:
    """Word length in the generators s_0, ..., s_{n-1}, by the closed form

        sum over pairs i < j of |lam_i - lam_j + [w^{-1}(i) > w^{-1}(j)]|.

    Right multiplication by the rotation leaves the sum unchanged, so the
    rotation part contributes nothing.
    """
    _check_type("x", x, ExtAffineElement)
    lam = x.lam
    winv = x.w.inverse().window
    total = 0
    for j in range(1, x.n):
        for i in range(j):
            total += abs(lam[i] - lam[j] + (winv[i] > winv[j]))
    return total


# perfbench/workloads.py calls the closed form by its earlier name.
length_formula = length_ext


def is_ascent(x: ExtAffineElement, i: int) -> bool:
    """Whether len(x * s_i) > len(x), for i in Z/n, from one pair term.

    With x = (lam, w) and i >= 1, x * s_i = (lam, w s_i) swaps the values
    i and i + 1 of w^{-1}, at positions a = w(i) and b = w(i + 1), so of
    the pair terms of ``length_ext`` only the one of {a, b} changes: from
    |lam_a - lam_b| to |lam_a - lam_b + 1| when a < b, and from
    |lam_b - lam_a + 1| to |lam_b - lam_a| when a > b.  It grows exactly
    when lam_a - lam_b - [a > b] >= 0.  As s_0 = r^{-1} s_{n-1} r and
    right multiplication by r keeps lengths, s_0 is an ascent of x when
    s_{n-1} is one of x r^{-1} = (lam - e_{w(1)}, w r_w^{-1}), whose
    window ends in w(n), w(1): with a = w(n) and b = w(1) the test reads
    lam_a - lam_b + 1 - [a > b] >= 0.

    >>> s = ExtAffineElement.simple_reflection
    >>> [is_ascent(s(3, 1), i) for i in range(3)]
    [True, False, True]
    """
    n = x.n
    i %= n
    win, lam = x.w.window, x.lam
    if i:
        a, b = win[i - 1], win[i]
        return lam[a - 1] - lam[b - 1] - (a > b) >= 0
    a, b = win[-1], win[0]
    return lam[a - 1] - lam[b - 1] + 1 - (a > b) >= 0


def reduced_word(x: ExtAffineElement) -> tuple[tuple[int, ...], int]:
    """Indices (i_1, ..., i_k) and rotation power m with
    x == s_{i_1} ... s_{i_k} * rotation^m and k == length_ext(x).

    The word is the lexicographically least reduced one: i_1 is the
    smallest left descent of y = x * rotation^{-m}, and so on.  For i >= 1,
    s_i * y swaps rows i and i + 1, which changes only the pair (i, i + 1)
    term of ``length_ext``, from |d| to |d - 1| with d = lam_i - lam_{i+1}
    + [w^{-1}(i) > w^{-1}(i+1)]; so s_i is a descent exactly when d > 0.
    As s_0 = r^{-1} s_{n-1} r, s_0 is one when the same d, read on rows
    n and 1, exceeds 1.

    With m the coordinate sum of x = (lam, w), r^{-m} has translation
    part mu_j = floor((j - 1 - m) / n) and window v(j) = ((j + m - 1) mod
    n) + 1 (``_rotation``), so y = (lam + w.mu, w v): mu_j is added into
    entry w(j) of lam, and w_y^{-1}(w(v(j))) = j.  Both lists are read off
    that form directly.

    The descents are peeled in place on the lists lam and w^{-1} of y,
    in one loop: s_i * y for i >= 1 swaps entries i and i + 1 of both,
    and s_0 * y swaps the two ends of w^{-1} and sets (lam_1, lam_n) to
    (lam_n - 1, lam_1 + 1).  Each step lowers the length by one, and y
    has coordinate sum 0, so it lies in the affine Weyl group, a Coxeter
    group, where only the identity has no left descent: the peeling ends
    there, after exactly length_ext(x) steps.  A peel changes only the
    pair terms of the rows it moves, so the scan for the next descent
    resumes at i - 1, or at 0 when row 1 or row n moved.

    >>> reduced_word(ExtAffineElement.translation((1, 0, 0)))
    ((1, 2), 1)
    """
    _check_type("x", x, ExtAffineElement)
    lam, win = list(x.lam), x.w.window
    n, m = len(win), sum(lam)
    winv = [0] * n
    for j in range(n):
        lam[win[j] - 1] += (j - m) // n
        winv[win[(j + m) % n] - 1] = j + 1
    word: list[int] = []
    i = 0
    while i < n:
        if lam[i - 1] - lam[i] + (winv[i - 1] > winv[i]) <= (i == 0):
            i += 1
            continue
        word.append(i)
        if i:
            lam[i - 1], lam[i] = lam[i], lam[i - 1]
            winv[i - 1], winv[i] = winv[i], winv[i - 1]
        else:
            lam[0], lam[-1] = lam[-1] - 1, lam[0] + 1
            winv[0], winv[-1] = winv[-1], winv[0]
        i = i - 1 if 1 < i < n - 1 else 0
    return tuple(word), m
