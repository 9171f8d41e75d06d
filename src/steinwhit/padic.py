"""Exact p-adic matrices.

Everything is a rational number viewed inside Q_p, with one prime per
matrix.  No completions, no floats.

A ``PAdicMatrix`` stores each row r in one form: the integer vector a_r
over the integer d_r, as the pair (a_r, d_r) with d_r > 0 and
gcd(d_r, *a_r) = 1.  For a given row that pair is unique (d_r is the lcm
of the row's denominators in lowest terms), so two matrices are equal
exactly when their primes and rows are.  Every kernel here reads and
writes that form, with no ``Fraction`` in between: ``iwahori.iwasawa``
eliminates on integer columns, ``minors._minors_pass`` reads the rows as
they are, ``iwahori.iwahori_cell`` builds and checks its witnesses on rows,
and ``matrix_to_json``, ``repr`` and ``decompose`` write each entry from its
row with one gcd (``_entry_strings``).  Entries come in by one rule,
``_entry_pair``, as integer pairs: an ``int`` (not a ``bool``), a
``Fraction``, or a string "a" or "a/b" in lowest terms, the grammar of
the JSON documents; the public constructors and the document reader both
read through it, and check p once.  ``entries``, the ``Fraction`` view,
is built on access, for the readers that want rationals.

Two kernels multiply matrices, one per kind of right factor.  A factor
used again and again, by ``__mul__`` or as a coset representative of
``principal_series``, goes through ``_times``: it gives the unreduced rows
of g . m from g's rows and the column form of m, which m builds the first
time it is a right factor and keeps (``PAdicMatrix._column_form``).  A
column is of one of two kinds: one-entry, read as one product, or dense,
read as a dot product with the whole row.  Each column keeps its own
factor to the common denominator, so dense entries stay small (scaled
in, ``iwahori_cell`` at n = 56 took 3.7 s, not 1.8 s).  ``__mul__``
reduces each row; the coset terms go to the minors pass as they are.  A
factor used once, in the n witness b . n2 and in
``Cell.reconstruct``, goes through ``_combined``: each row of the product
is a combination of the factor's rows, with each coefficient (never the
entries) scaled to the common denominator and the zero coefficients
skipped, about half of them against the unitriangular n; nothing is built
that the product would not read.  These are two jobs, not one kernel with
a switch: a column form is paid for once and read for every later
product, and on reused factors the row combination is the slower one (by
31% on the pooled Iwahori factors of the ``cells`` benchmark and 3.6
times on the coset representatives, 2-vCPU Xeon VM), while for a factor
used once building the column form is the waste.

The package reaches the cell of a matrix g by two independent
algorithms, each in its own module over this one, so that a process
compiles only the one it runs:

* ``minors``: the cell label read off the minors on the bottom rows of
  g, with the phase terms of psi on n (``cell_label`` and
  ``_minors_pass``), for ``eval``, ``verify`` and the principal series;
* ``iwahori``: the label with exact witnesses, by elimination
  (``iwasawa``, ``residue_bruhat`` and ``iwahori_cell``), for
  ``steinwhit decompose``.

This module keeps what both read: the matrix type, the entry reader and
writer, valuations, primality, the product kernels and ``Cell``, the
record of a label and its witnesses (``sampling`` builds points with it).
The old names ``padic.cell_label``, ``padic.iwasawa``,
``padic.residue_bruhat`` and ``padic.iwahori_cell`` still resolve, by a
module ``__getattr__`` that loads their module on first access.

A broken invariant of a decomposition raises ``DecompositionError``, which
``python -O`` does not switch off.  Primes are decided by ``is_prime``
(deterministic Miller-Rabin) below ``PRIME_BOUND``, and a p from a
library caller passes one rule, ``_check_prime``, which ``values``
shares.
"""

from __future__ import annotations

import functools
import json
import math
import operator
import re
from fractions import Fraction

from .weyl import Permutation, _check_int, _check_type, _FrozenValue

__all__ = [
    "Cell",
    "DecompositionError",
    "MatrixFormatError",
    "PAdicMatrix",
    "PRIME_BOUND",
    "SingularMatrixError",
    "frac_psi_phase",
    "frac_valuation",
    "is_prime",
    "matrix_from_json",
    "matrix_to_json",
]

# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson and Webster, 2015); a larger p is refused, not guessed at.
PRIME_BOUND = 3_317_044_064_679_887_385_961_981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


class SingularMatrixError(ValueError):
    """The matrix is not invertible over Q."""


class MatrixFormatError(ValueError):
    """A serialized matrix does not match the expected JSON shape."""


class DecompositionError(ArithmeticError):
    """A computed factorization broke one of its invariants."""


def is_prime(p: int) -> bool:
    """Whether p is prime, by deterministic Miller-Rabin.

    Exact for every p below PRIME_BOUND; ValueError at or above it.

    >>> [q for q in range(30) if is_prime(q)]
    [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    >>> is_prime(1000000000000000003), is_prime(3215031751)
    (True, False)
    """
    if p >= PRIME_BOUND:
        raise ValueError(f"must be below {PRIME_BOUND}, got {p}")
    if p < 2:
        return False
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _check_prime(p) -> None:
    """The one rule for p: TypeError unless p is an ``int`` (``bool``
    refused), ValueError unless it is prime (``is_prime``)."""
    _check_int("p", p)
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")


def _int_valuation(a: int, p: int) -> int:
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    return v


def frac_valuation(x: Fraction, p: int) -> int:
    """p-adic valuation of a nonzero rational; ValueError for 0.

    >>> frac_valuation(Fraction(9, 20), 2), frac_valuation(Fraction(9, 20), 3)
    (-2, 2)
    """
    if x == 0:
        raise ValueError("the valuation of 0 is infinite")
    return _int_valuation(x.numerator, p) - _int_valuation(x.denominator, p)


def frac_psi_phase(x: Fraction, p: int) -> Fraction:
    """Phase of the standard additive character at x, as a rational mod 1.

    The character sends x to exp(2 pi i . phase) where phase is the p-adic
    fractional part: 0 when v(x) >= 0, otherwise (c d^{-1} mod p^m) / p^m
    for x = c / (d p^m) with c, d prime to p.
    """
    if x == 0:
        return Fraction(0)
    v = frac_valuation(x, p)
    if v >= 0:
        return Fraction(0)
    m = -v
    pm = p**m
    # x is in lowest terms, so its denominator is exactly d * p^m with d prime to p.
    d = x.denominator // pm
    r = (x.numerator * pow(d, -1, pm)) % pm
    return Fraction(r, pm)


# A row a / d of a matrix: integers a and d > 0 with gcd(d, *a) == 1.  For
# a given row of rationals this pair is unique: d is the lcm of the
# entries' denominators in lowest terms.
_Row = tuple[tuple[int, ...], int]


def _p_power(p: int, v: int) -> tuple[int, int]:
    """Integers (up, down) with p^v == up / down."""
    return (p**v, 1) if v >= 0 else (1, p**-v)


def _reduced(a, d: int) -> _Row:
    """The canonical row of the vector a / d over integers, d != 0."""
    e = math.gcd(d, *a)
    if e == 1 and d > 0:
        return tuple(a), d
    if d < 0:
        e = -e
    return tuple(x // e for x in a), d // e


# An integer, or a/b with b > 0: the entry strings of the document grammar
# (lowest terms is tested apart), and what matrix_to_json writes.
_RATIONAL_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _entry_pair(e) -> tuple[int, int]:
    """The entry e as an integer pair (a, b), a/b in lowest terms with
    b > 0: the one rule by which entries enter a ``PAdicMatrix``.

    e is an ``int`` (``bool`` refused), a ``Fraction``, or a string "a" or
    "a/b" in lowest terms; any other type raises TypeError, and any other
    string MatrixFormatError (a ValueError).
    """
    if type(e) is int:
        return e, 1
    if isinstance(e, Fraction):
        return e.numerator, e.denominator
    if not isinstance(e, str):
        raise TypeError(f"bad rational entry {e!r}")
    m = _RATIONAL_RE.fullmatch(e)
    if m is None:
        raise MatrixFormatError(f"bad rational entry {e!r}: expected an integer or a/b in lowest terms")
    try:
        a, b = int(m[1]), 1 if m[2] is None else int(m[2])
    except ValueError as exc:  # over the int-string digit limit
        raise MatrixFormatError(f"bad rational entry {e!r}") from exc
    if not b:
        raise MatrixFormatError(f"bad rational entry {e!r}")
    if math.gcd(a, b) != 1:
        raise MatrixFormatError(f"rational entry {e!r} is not in lowest terms")
    return a, b


def _row_of(pairs) -> _Row:
    """The canonical row of the entries x / y, given as integer pairs (x, y), y != 0."""
    reduced = []
    for x, y in pairs:
        e = math.gcd(x, y)
        reduced.append((x // e, y // e) if y > 0 else (-x // e, -y // e))
    d = math.lcm(*(y for _, y in reduced))
    return tuple(x * (d // y) for x, y in reduced), d


def _columns(rows) -> list[tuple[tuple[int, ...], int]]:
    """The columns of the matrix with the canonical rows ``rows``, each as
    an integer vector b over a positive denominator e.

    Each column is cleared on its own, over the lcm of its entries'
    denominators, so a column of small denominators keeps small integers;
    ``PAdicMatrix._column_form`` scales each dot product, not the entries,
    to the common denominator L.  Scaled entries, each as large as L, took
    ``iwahori_cell`` on a dense n = 56 matrix (entries in [-9, 9], p = 3)
    from 1.8 s to 3.7 s.
    """
    dens = [e for _, e in rows]
    cols = []
    for col in zip(*(a for a, _ in rows)):
        # the entry x / e has the denominator e / gcd(x, e) in lowest terms
        d = math.lcm(*map(operator.floordiv, dens, map(math.gcd, col, dens)))
        cols.append((tuple(x * d // e for x, e in zip(col, dens)), d))
    return cols


def _times(rows, m: "PAdicMatrix") -> list[tuple[list[int], int]]:
    """The rows of g . m, unreduced, from the rows (a_r, d_r) of g: with
    column j of m as b_j / e_j and L the lcm of the e_j, row r is the
    integers (a_r . b_j) L / e_j over d_r L.  A one-entry column is read
    without a sum, and any other column against all of a_r."""
    cols, big = m._column_form
    mul = operator.mul
    return [([a[k] * x if s is None else sum(map(mul, a, x)) * s for k, x, s in cols], d * big) for a, d in rows]


def _combined(rows, right) -> tuple[_Row, ...]:
    """The canonical rows of g . m, from the rows (a_r, d_r) of g and the
    rows (b_k, e_k) of m, integer vectors over positive denominators: with
    L the lcm of the e_k, row r is the sum of a_r[k] (L / e_k) b_k over
    d_r L, each coefficient scaled and never the entries, and the zero
    coefficients skipped.  The product kernel for a right factor used
    once, which would never read a column form again."""
    big = math.lcm(*[e for _, e in right])
    right = [(b, big // e) for b, e in right]
    out = []
    for a, d in rows:
        acc = None
        for c, (b, f) in zip(a, right):
            if c:
                c *= f
                acc = [c * y for y in b] if acc is None else [x + c * y for x, y in zip(acc, b)]
        out.append(_reduced([0] * len(right) if acc is None else acc, d * big))
    return tuple(out)


class PAdicMatrix(_FrozenValue):
    """Square matrix of exact rationals sharing one prime.

    The stored form is ``rows``: row r is the integer vector a_r over the
    integer d_r, as the pair (a_r, d_r) with d_r > 0 and
    gcd(d_r, *a_r) = 1.  That pair is unique for a given row (d_r is the
    lcm of its entries' denominators), so equality and hashing compare
    (p, rows), and every kernel of this module reads and writes integer
    rows with no ``Fraction`` in between.  It is a frozen value
    (``weyl._FrozenValue``) over the slots p and rows; its ``__dict__``
    holds only the cached ``_column_form``.  The public constructors
    (``PAdicMatrix(p, entries)``, ``from_rows`` and the named ones) check
    and clear their input once: p must be an ``int`` (``bool`` refused,
    TypeError) and prime (``is_prime``, else ValueError), and the entries
    a square array read by ``_entry_pair``, the rule of the JSON reader:
    ``int`` (not ``bool``), ``Fraction``, or a string "a" or "a/b" in
    lowest terms.  ``entries``, the matrix as a tuple of
    tuples of ``Fraction``s, is computed on each access for the readers
    that want rationals.
    """

    __slots__ = ("p", "rows", "__dict__")
    _fields = ("p", "rows")
    p: int
    rows: tuple[_Row, ...]

    def __init__(self, p: int, entries) -> None:
        _check_prime(p)
        n = len(entries)
        _check_int("n", n, 1)
        rows = []
        for row in entries:
            a, d = _row_of(map(_entry_pair, row))
            if len(a) != n:
                raise ValueError("matrix must be square")
            rows.append((a, d))
        _set_p(self, p)
        _set_rows(self, tuple(rows))

    @classmethod
    def _of_rows(cls, p: int, rows: tuple[_Row, ...]) -> "PAdicMatrix":
        """Wrap square canonical rows built in this module, unchecked."""
        m = object.__new__(cls)
        _set_p(m, p)
        _set_rows(m, rows)
        return m

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(x, d) for x in a) for a, d in self.rows)

    @property
    def n(self) -> int:
        return len(self.rows)

    @functools.cached_property
    def _column_form(self) -> tuple[tuple[tuple, ...], int]:
        """The matrix as a right factor (``_times``), built on first use and
        kept; not a field, so equality, hashing and repr read (p, rows) only.
        Two column kinds, per column b_j / e_j of ``_columns``: one-entry,
        (k, b_j[k] L / e_j, None) if b_j has one nonzero entry (or none:
        k = 0), read without a sum; else dense, (None, b_j, L / e_j), a dot
        product with the whole row (summing only a sparse column's nonzero
        entries measured no faster).  And L."""
        cols = _columns(self.rows)
        big = math.lcm(*[e for _, e in cols])
        form = []
        for b, e in cols:
            ks = [k for k, x in enumerate(b) if x]
            if len(ks) > 1:
                form.append((None, b, big // e))
            else:
                k = ks[0] if ks else 0
                form.append((k, b[k] * (big // e), None))
        return tuple(form), big

    @classmethod
    def from_rows(cls, p: int, rows) -> "PAdicMatrix":
        return cls(p, rows)

    @classmethod
    def identity(cls, n: int, p: int) -> "PAdicMatrix":
        _check_int("n", n, 1)
        return cls.from_rows(
            p, [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        )

    @classmethod
    def diagonal(cls, p: int, diag) -> "PAdicMatrix":
        n = len(diag)
        return cls.from_rows(
            p, [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
        )

    @classmethod
    def weight_matrix(cls, p: int, kbar) -> "PAdicMatrix":
        """diag(p^{k_1}, ..., p^{k_n}), p checked first and each k an ``int``
        (``bool`` refused)."""
        _check_prime(p)
        for k in kbar:
            _check_int("k", k)
        return cls.diagonal(p, [Fraction(*_p_power(p, k)) for k in kbar])

    @classmethod
    def permutation(cls, p: int, w: Permutation) -> "PAdicMatrix":
        """Column j carries a 1 in row w(j); w is a ``Permutation``."""
        _check_type("w", w, Permutation)
        n = w.n
        return cls.from_rows(
            p, [[1 if i == w(j) else 0 for j in range(1, n + 1)] for i in range(1, n + 1)]
        )

    @classmethod
    def one_param(cls, p: int, n: int, i: int, j: int, t) -> "PAdicMatrix":
        """I + t e_{i,j} for i != j, positions ``int``s in 1..n (else
        TypeError, ValueError)."""
        _check_int("i", i)
        _check_int("j", j)
        if i == j or min(i, j) < 1 or max(i, j) > n:
            raise ValueError(f"need distinct positions in 1..{n}, got ({i}, {j})")
        rows = [[int(a == b) for b in range(n)] for a in range(n)]
        rows[i - 1][j - 1] = t
        return cls.from_rows(p, rows)

    def __mul__(self, other: "PAdicMatrix") -> "PAdicMatrix":
        if type(other) is not PAdicMatrix:
            return NotImplemented
        if self.p != other.p or self.n != other.n:
            raise ValueError("matrix context mismatch")
        return PAdicMatrix._of_rows(self.p, tuple(_reduced(a, d) for a, d in _times(self.rows, other)))

    # perfbench/tracer.py:30 wraps this method; nothing in the library calls it.
    def inverse(self) -> "PAdicMatrix":
        n = self.n
        work = [list(row) + [Fraction(int(i == j)) for j in range(n)]
                for i, row in enumerate(self.entries)]
        for col in range(n):
            pivot = next((r for r in range(col, n) if work[r][col] != 0), None)
            if pivot is None:
                raise SingularMatrixError("matrix is singular")
            work[col], work[pivot] = work[pivot], work[col]
            inv = 1 / work[col][col]
            work[col] = [e * inv for e in work[col]]
            for r in range(n):
                if r != col and work[r][col] != 0:
                    factor = work[r][col]
                    work[r] = [work[r][k] - factor * work[col][k] for k in range(2 * n)]
        return PAdicMatrix.from_rows(self.p, [row[n:] for row in work])

    def is_in_iwahori(self) -> bool:
        """Integral, with a unit diagonal and p dividing every entry below it.

        Such a matrix is in K without a determinant: mod p it is upper
        triangular, so det is congruent to the product of the diagonal,
        a unit.
        """
        p = self.p
        return all(
            d % p and a[i] % p and not any(x % p for x in a[:i]) for i, (a, d) in enumerate(self.rows)
        )

    def is_upper_unitriangular(self) -> bool:
        return all(a[i] == d and not any(a[:i]) for i, (a, d) in enumerate(self.rows))

    def __repr__(self) -> str:
        body = "; ".join(map(" ".join, _entry_strings(self)))
        return f"PAdicMatrix(p={self.p}, [{body}])"


# the slots' own setters, so that the constructors bypass the frozen
# ``__setattr__``
_set_p = PAdicMatrix.p.__set__
_set_rows = PAdicMatrix.rows.__set__


def _entry_strings(m: PAdicMatrix) -> list[list[str]]:
    """The entries of m as ``str(Fraction)`` writes them, "x" or "x/y" in
    lowest terms, read off the stored rows with one gcd per entry."""
    out = []
    for a, d in m.rows:
        row = []
        for x in a:
            e = math.gcd(x, d)
            row.append(str(x // e) if e == d else f"{x // e}/{d // e}")
        out.append(row)
    return out


def matrix_to_json(m: PAdicMatrix) -> str:
    _check_type("m", m, PAdicMatrix)
    return json.dumps({"p": m.p, "entries": _entry_strings(m)}, sort_keys=True)


def _matrix_document(doc) -> tuple[int, list]:
    """The prime and the list of rows of a matrix document, with only its
    top level checked: an object with the fields 'p', a prime, and
    'entries', a list of at least 2 rows.  The rows are not read, so a
    caller can refuse a size from len(entries) before parsing any entry."""
    if isinstance(doc, (str, bytes)):
        try:
            doc = json.loads(doc)
        except ValueError as exc:  # bad syntax or encoding, or an integer over the digit limit
            raise MatrixFormatError(f"invalid JSON: {exc}") from exc
        except RecursionError as exc:
            raise MatrixFormatError("invalid JSON: nested too deeply") from exc
    if not isinstance(doc, dict) or set(doc) - {"p", "entries"} or "p" not in doc or "entries" not in doc:
        raise MatrixFormatError("expected an object with fields 'p' and 'entries'")
    p = doc["p"]
    try:
        prime = isinstance(p, int) and is_prime(p)
    except ValueError as exc:
        raise MatrixFormatError(f"'p' {exc}") from exc
    if not prime:
        raise MatrixFormatError(f"'p' must be a prime integer, got {p!r}")
    entries = doc["entries"]
    if not isinstance(entries, list) or not entries:
        raise MatrixFormatError("'entries' must be a non-empty list of rows")
    n = len(entries)
    if n < 2:
        raise MatrixFormatError(f"'entries' must have at least 2 rows (n >= 2), got {n}")
    return p, entries


def _matrix_of_entries(p: int, entries: list) -> PAdicMatrix:
    """The matrix of the rows of a document whose top level, p included,
    ``_matrix_document`` has checked: a square array of integers or
    strings "a" or "a/b" in lowest terms, each read by ``_entry_pair``;
    any other row or entry raises MatrixFormatError, at the first one."""
    n = len(entries)
    rows = []
    for row in entries:
        if not isinstance(row, list) or len(row) != n:
            raise MatrixFormatError("'entries' must be a square array of rationals")
        try:
            rows.append(_row_of(map(_entry_pair, row)))
        except TypeError as exc:  # a JSON value that is neither a number nor a string
            raise MatrixFormatError(str(exc)) from None
    return PAdicMatrix._of_rows(p, tuple(rows))


def matrix_from_json(doc) -> PAdicMatrix:
    """Parse {"p": prime, "entries": [["a/b", ...], ...]} (dict or JSON text)."""
    return _matrix_of_entries(*_matrix_document(doc))


class Cell(_FrozenValue):
    """Label and witnesses for g = n . diag(p^kbar) . t0 . P_w . j: a
    frozen record (``weyl._FrozenValue``), its fields not checked."""

    __slots__ = _fields = ("kbar", "w", "n_factor", "t0_factor", "j_factor")
    kbar: tuple[int, ...]
    w: Permutation
    n_factor: PAdicMatrix
    t0_factor: PAdicMatrix
    j_factor: PAdicMatrix

    def __init__(self, kbar: tuple[int, ...], w: Permutation, n_factor: PAdicMatrix, t0_factor: PAdicMatrix,
                 j_factor: PAdicMatrix) -> None:
        _set_kbar(self, kbar)
        _set_cell_w(self, w)
        _set_n_factor(self, n_factor)
        _set_t0_factor(self, t0_factor)
        _set_j_factor(self, j_factor)

    def reconstruct(self) -> PAdicMatrix:
        """The product of the witnesses, as one product.

        Row r of diag(p^kbar) . t0 . P_w . j is p^{k_r} t0_r times row
        w^{-1}(r) of j, so g is n times j with its rows permuted and scaled.
        ValueError unless kbar, w and the three matrices have one size, the
        matrices one prime, and t0 is diagonal; TypeError unless w is a
        ``Permutation`` and the three witnesses ``PAdicMatrix``es.
        """
        for name, cls in (("w", Permutation), ("n_factor", PAdicMatrix), ("t0_factor", PAdicMatrix),
                          ("j_factor", PAdicMatrix)):
            _check_type(name, getattr(self, name), cls)
        n_factor, t0, j = self.n_factor, self.t0_factor, self.j_factor
        n, p = n_factor.n, n_factor.p
        if len(self.kbar) != n or self.w.n != n or (t0.n, t0.p) != (n, p) or (j.n, j.p) != (n, p):
            raise ValueError("cell witnesses of different sizes or primes")
        if any(any(a[:r]) or any(a[r + 1:]) for r, (a, _) in enumerate(t0.rows)):
            raise ValueError(f"t0 witness is not diagonal: {t0!r}")
        winv, j_rows = self.w.inverse(), j.rows
        right = []
        for r, (k, (t, t_den)) in enumerate(zip(self.kbar, t0.rows)):
            up, down = _p_power(p, k)
            a, d = j_rows[winv(r + 1) - 1]
            s = up * t[r]
            right.append(([x * s for x in a], d * down * t_den))
        return PAdicMatrix._of_rows(p, _combined(n_factor.rows, right))


_set_kbar, _set_cell_w, _set_n_factor, _set_t0_factor, _set_j_factor = (
    getattr(Cell, name).__set__ for name in Cell._fields
)


# perfbench/workloads.py and perfbench/tracer.py read these names from
# their earlier home, this module: name -> the module that defines it now
_MOVED = {"cell_label": "minors", "iwahori_cell": "iwahori", "iwasawa": "iwahori", "residue_bruhat": "iwahori"}


def __getattr__(name: str):
    """Import the home of a moved name on first access (PEP 562) and keep
    the name here; any other name raises AttributeError."""
    home = _MOVED.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__package__}.{home}"), name)
    globals()[name] = value
    return value
