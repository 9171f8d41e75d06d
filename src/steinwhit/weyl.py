"""Symmetric group combinatorics for GL(n).

Conventions, fixed here once and relied on by every other module:

* Permutations are stored in one-line notation over ``{1, ..., n}``,
  so ``w(i) == window[i - 1]``.
* Composition is ``(v * w)(i) == v(w(i))`` -- the right factor acts first.
* Roots are ordered index pairs ``(i, j)`` with ``i != j``, positive
  exactly when ``i < j``, and permutations act by
  ``alpha_{i,j} |-> alpha_{w(i), w(j)}``.
* Weights are integer exponent vectors ``kbar``; the pairing with a root
  is ``<alpha_{i,j}, kbar> == kbar[i-1] - kbar[j-1]``.

Dominance here is always dominance *relative to a permutation* ``w``: a
weight lies in the ``w``-cone when every simple-root pairing clears the
threshold 0 (simple root pulled back to a positive root by ``w**-1``) or
-1 (pulled back to a negative root).  These thresholds are the one
definition of the cone: ``dominance_shift(w)``, the suffix sums of the
thresholds, is its vertex, and translating the cone by it moves it onto
the ordinary dominant cone.

The library's value classes (``Permutation``, ``ExtAffineElement``,
``PAdicMatrix``, ``Cell``, ``CheckResult``, ``WhittakerValue``) are
plain slotted classes over one base, ``_FrozenValue``: a class names its
fields in ``_fields``, and the base gives ``==`` by the fields (another
class gets ``NotImplemented``), a hash of the fields, the ``repr``
``Class(field=value, ...)``, and an assignment or deletion that raises
``dataclasses.FrozenInstanceError``.  A constructor writes each field
through its slot's own setter (``Class.field.__set__``) or through the
base's ``__setstate__``; both bypass the frozen ``__setattr__``.
``dataclasses`` is imported on that error path only.

``Permutation`` is such a value with no instance ``__dict__``, a hash of
the window alone and an ``==`` and ordering that compare the windows of
two permutations, each in one frame.  Its constructor validates the
window; the products and inverses of this package build theirs
unchecked (``_of``), writing the slot through its descriptor.
"""

from __future__ import annotations

import itertools
import operator
from typing import Iterator

__all__ = [
    "Permutation",
    "Weight",
    "all_permutations",
    "dominance_shift",
    "is_dominant",
]

Weight = tuple[int, ...]


class _FrozenValue:
    """Base of the frozen value classes: ``==``, hash and ``repr`` by the
    fields ``_fields`` of the subclass, and no assignment or deletion."""

    __slots__ = ()
    _fields: tuple[str, ...]

    def __init_subclass__(cls) -> None:
        cls._values = operator.attrgetter(*cls._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")

    # ``copy`` and ``pickle`` write the fields back through the slots
    def __getstate__(self) -> list:
        return [getattr(self, name) for name in self._fields]

    def __setstate__(self, state: list) -> None:
        for name, value in zip(self._fields, state):
            object.__setattr__(self, name, value)


def _window_order(compare):
    """A comparison of two permutations by their windows, as a tuple orders
    them; another class gets ``NotImplemented``."""

    def order(self, other) -> bool:
        if other.__class__ is Permutation:
            return compare(self.window, other.window)
        return NotImplemented

    return order


class Permutation(_FrozenValue):
    """A permutation of {1, ..., n} in one-line notation.

    A slotted frozen value: it hashes as its window, it equals exactly
    the permutations with the same window, and it orders as its window
    (any other class gets ``NotImplemented``, so a tuple compares
    unequal).

    >>> w = Permutation((2, 3, 1))
    >>> w(1), w(2), w(3)
    (2, 3, 1)
    >>> w.inverse().window
    (3, 1, 2)
    >>> (w * w.inverse()).window
    (1, 2, 3)
    """

    __slots__ = _fields = ("window",)
    window: tuple[int, ...]

    def __init__(self, window: tuple[int, ...]) -> None:
        entries = tuple(window)
        if any(type(v) is not int for v in entries):
            raise TypeError(f"permutation entries must be int: {window!r}")
        n = len(entries)
        _check_int("n", n, 1)
        if sorted(entries) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {entries}")
        _set_window(self, entries)

    @classmethod
    def _of(cls, window: tuple[int, ...]) -> "Permutation":
        """Wrap a window built in this package from valid ones, unchecked."""
        w = object.__new__(cls)
        _set_window(w, window)
        return w

    def __eq__(self, other: object) -> bool:
        if other.__class__ is Permutation:
            return self.window == other.window
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.window)

    __lt__ = _window_order(operator.lt)
    __le__ = _window_order(operator.le)
    __gt__ = _window_order(operator.gt)
    __ge__ = _window_order(operator.ge)

    @property
    def n(self) -> int:
        return len(self.window)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        """The identity of size n, an ``int`` >= 1 (``bool`` refused)."""
        _check_int("n", n, 1)
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def simple(cls, n: int, i: int) -> "Permutation":
        """The adjacent transposition swapping i and i + 1 (1 <= i < n);
        n and i are ``int``s (``bool`` refused), n >= 1."""
        _check_int("n", n, 1)
        _check_int("i", i)
        if not 1 <= i < n:
            raise ValueError(f"simple reflection index {i} out of range for n={n}")
        window = list(range(1, n + 1))
        window[i - 1], window[i] = window[i], window[i - 1]
        return cls(tuple(window))

    @classmethod
    def longest(cls, n: int) -> "Permutation":
        """The order-reversing permutation n, n-1, ..., 1."""
        return cls(tuple(range(n, 0, -1)))

    @classmethod
    def transposition(cls, n: int, i: int, j: int) -> "Permutation":
        window = list(range(1, n + 1))
        window[i - 1], window[j - 1] = window[j - 1], window[i - 1]
        return cls(tuple(window))

    def __call__(self, i: int) -> int:
        return self.window[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition with ``other`` acting first: (self * other)(i) == self(other(i))."""
        if type(other) is not Permutation:
            return NotImplemented
        win, right = self.window, other.window
        if len(win) != len(right):
            raise ValueError("size mismatch")
        return Permutation._of(tuple([win[k - 1] for k in right]))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for pos, val in enumerate(self.window, start=1):
            inv[val - 1] = pos
        return Permutation._of(tuple(inv))

    def length(self) -> int:
        """Number of inversions.

        >>> Permutation((2, 3, 1)).length()
        2
        >>> Permutation.longest(4).length()
        6
        """
        win = self.window
        return sum(
            1
            for a in range(len(win))
            for b in range(a + 1, len(win))
            if win[a] > win[b]
        )

    def sign(self) -> int:
        """(-1)^length, as (-1)^(n - number of cycles), in O(n) steps.

        >>> Permutation((2, 3, 1)).sign(), Permutation.simple(3, 2).sign()
        (1, -1)
        """
        win = self.window
        seen = [False] * len(win)
        parity = len(win)
        for start in range(len(win)):
            if not seen[start]:
                parity += 1
                j = start
                while not seen[j]:
                    seen[j] = True
                    j = win[j] - 1
        return -1 if parity % 2 else 1

    def act_weight(self, kbar: Weight) -> Weight:
        """Permute weight entries: result[self(j)] = kbar[j]."""
        win = self.window
        if len(kbar) != len(win):
            raise ValueError("weight length mismatch")
        out = [0] * len(win)
        for k, v in zip(win, kbar):
            out[k - 1] = v
        return tuple(out)

    def __repr__(self) -> str:
        return f"Permutation({self.window})"


# the slot's own setter, so that the constructor and ``_of`` bypass the
# frozen ``__setattr__``
_set_window = Permutation.window.__set__


def _check_int(name: str, value: int, least: int | None = None) -> None:
    """TypeError unless ``value`` is an ``int`` (``bool`` refused); ValueError
    if it is below ``least``."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an int, not {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


def _check_type(name: str, value, cls: type) -> None:
    """TypeError unless ``value`` is an instance of ``cls``: the one class
    rule for an object argument, a single ``isinstance`` test."""
    if not isinstance(value, cls):
        raise TypeError(f"{name} must be an instance of {cls.__name__}, not {value!r}")


def all_permutations(n: int) -> Iterator[Permutation]:
    """All n! permutations in lexicographic window order (deterministic);
    n is an ``int`` >= 1, checked at the call."""
    _check_int("n", n, 1)
    return map(Permutation._of, itertools.permutations(range(1, n + 1)))


def is_dominant(kbar: Weight, w: Permutation) -> bool:
    """Whether ``kbar`` lies in the w-dominance cone.

    For each simple root alpha_i = alpha_{i,i+1} the pairing
    ``k_i - k_{i+1}`` must be >= 0 when ``w**-1 . alpha_i`` is positive and
    >= -1 when it is negative.  Each entry of ``kbar`` must be an ``int``
    (``bool`` refused, TypeError).

    >>> is_dominant((0, 0), Permutation.identity(2))
    True
    >>> is_dominant((-1, 0), Permutation.simple(2, 1))
    True
    >>> is_dominant((-2, 0), Permutation.simple(2, 1))
    False
    """
    _check_type("w", w, Permutation)
    if len(kbar) != w.n:
        raise ValueError("weight length mismatch")
    for k in kbar:
        _check_int("kbar entry", k)
    return all(kbar[i] - kbar[i + 1] >= t for i, t in enumerate(_dominance_thresholds(w)))


def _torus_character(kbar: Weight) -> tuple[int, int]:
    """(sum of k_i, -sum of (n + 1 - 2i) k_i): the eps exponent, per unit
    of e, and the q exponent of the unramified character at p^kbar,
    eps^{e sum k} q^{-sum (n + 1 - 2i) k_i}.

    >>> _torus_character((2, 0, -1))
    (1, -6)
    """
    n = len(kbar)
    return sum(kbar), sum(map(operator.mul, range(1 - n, n + 1, 2), kbar))


def _dominance_thresholds(w: Permutation) -> tuple[int, ...]:
    """Entry i - 1 is the least k_i - k_{i+1} of the w-dominance cone, 0 or -1."""
    winv = w.inverse().window
    return tuple(0 if winv[i] < winv[i + 1] else -1 for i in range(w.n - 1))


def dominance_shift(w: Permutation) -> Weight:
    """Suffix sums of the dominance thresholds; the vertex of the w-dominance cone.

    ``kbar`` is w-dominant exactly when ``kbar - dominance_shift(w)`` is
    weakly decreasing, and the difference condition pins the shift:
    consecutive entries differ by 0 over an ascent of ``w**-1`` and by -1
    over a descent, with last entry 0.

    >>> dominance_shift(Permutation.simple(2, 1))
    (-1, 0)
    >>> dominance_shift(Permutation.longest(4))
    (-3, -2, -1, 0)
    """
    _check_type("w", w, Permutation)
    return tuple(itertools.accumulate(reversed(_dominance_thresholds(w)), initial=0))[::-1]


if __name__ == "__main__":
    import doctest

    doctest.testmod()
