"""Exact p-adic matrices and the Iwahori cell decomposition.

Everything is a rational number viewed inside Q_p, with one prime per
matrix.  No completions, no floats.

A ``PAdicMatrix`` stores each row r in one form: the integer vector a_r
over the integer d_r, as the pair (a_r, d_r) with d_r > 0 and
gcd(d_r, *a_r) = 1.  For a given row that pair is unique (d_r is the lcm
of the row's denominators in lowest terms), so two matrices are equal
exactly when their primes and rows are.  Every kernel here reads and
writes that form, with no ``Fraction`` in between: ``iwasawa``
eliminates on integer columns, the minors pass reads the rows as they
are, ``iwahori_cell`` builds and checks its witnesses on rows, and
``matrix_to_json``, ``repr`` and ``decompose`` write each entry from its
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

Every invertible g lies in exactly one Iwahori cell,

    g = n . diag(p^kbar) . t0 . P_w . j,

with n upper unitriangular over Q, t0 diagonal with unit entries, P_w the
permutation matrix of w and j in the Iwahori subgroup J (integral, upper
triangular and invertible mod p).  The pair (kbar, w) labels the cell;
the other factors are witnesses.  Two independent algorithms find it,
and each has its own consumers:

* the minors pass (``_minors_pass``): the label read off the valuations
  of the minors on the bottom rows of g, and from the same minors the
  integer terms of the additive character's phase on n, of which
  ``whittaker`` forms the phase only on the support.  One fraction-free
  (Bareiss) column elimination, bottom row first, computes exactly the
  minors the label needs, those that border the least minimizing column
  set of the level below, in O(n^3) exact integer operations, on the
  rows of g given as integer vectors over any positive denominators.
  ``cell_label`` and ``whittaker.eval_matrix`` call it on a matrix's
  stored rows; ``principal_series._coset_passes`` on the rows of each
  coset term g . rep as ``_times`` leaves them, for ``apply_generator``
  and the identity checks of both verification suites.  The formulas
  and their proofs are in the docstrings of ``cell_label`` and
  ``_minors_pass``.
* ``iwahori_cell``: the label with exact witnesses, by elimination, for
  ``steinwhit decompose``:
  ``iwasawa`` writes g = b k with b upper triangular over Q and k in
  K = GL_n(Z_p), by column operations over Z_p on integer columns;
  ``residue_bruhat`` finds w and b1 of k = b1 P_w b2 mod p, by row/column
  clearing from a bottom-most pivot per column; back substitution
  against the integer lift of b1 gives j, and pushing b1 through the
  diagonal of b gives n and t0.  With ``check`` the witnesses are
  verified, once, to lie in their subgroups and to reconstruct g
  exactly; ``iwasawa`` itself checks nothing (its tests hold it to a
  ``Fraction`` oracle).

A broken invariant of a decomposition raises ``DecompositionError``, which
``python -O`` does not switch off.  Lifts from F_p to Z always use the
representatives {0, ..., p-1}.  Primes are decided by ``is_prime``
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
from collections.abc import Sequence
from fractions import Fraction

from .weyl import Permutation, _check_int, _check_type, _FrozenValue

__all__ = [
    "Cell",
    "DecompositionError",
    "MatrixFormatError",
    "PAdicMatrix",
    "PRIME_BOUND",
    "SingularMatrixError",
    "cell_label",
    "frac_psi_phase",
    "frac_valuation",
    "is_prime",
    "iwahori_cell",
    "iwasawa",
    "matrix_from_json",
    "matrix_to_json",
    "residue_bruhat",
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


def iwasawa(g: PAdicMatrix) -> tuple[PAdicMatrix, PAdicMatrix]:
    """g = b k with b upper triangular over Q and k in GL_n(Z_p).

    Column elimination over Z_p on rows n..1.  In each row the pivot among
    the not-yet-fixed columns is an entry of least valuation v (ties to
    the smallest column index); it is swapped into place and its column
    is scaled so that the pivot becomes exactly p^v, and the columns to
    its left are cleared against it.  Every column operation is a right
    multiplication by an element of K, so b is upper triangular with
    diagonal p^kbar and k = b^{-1} g.

    The working columns are integer vectors over one denominator, cut to
    the rows not yet fixed and reduced by their gcd after each update.  k
    is never updated: until step i its row i is a coordinate row, and
    step i adds to it exactly the multiples of the coordinate rows that
    clear row i of the working matrix.  So row i of k is row i of the
    working matrix at step i over p^v, with its columns put back in their
    original order.
    """
    _check_type("g", g, PAdicMatrix)
    n, p = g.n, g.p
    cols = _columns(g.rows)
    order = list(range(n))  # working column j is column order[j] of g
    b = [[(0, 1)] * n for _ in range(n)]  # entries as integer pairs (x, y) for x / y
    k: list = [None] * n
    for i in range(n - 1, -1, -1):
        best, best_v = None, 0
        for j in range(i + 1):
            a, d = cols[j]
            if a[i]:
                v = _int_valuation(a[i], p) - _int_valuation(d, p)
                if best is None or v < best_v:
                    best, best_v = j, v
        if best is None:
            raise SingularMatrixError("matrix is singular")
        cols[best], cols[i] = cols[i], cols[best]
        order[best], order[i] = order[i], order[best]
        up, down = _p_power(p, best_v)
        k_row = [(0, 1)] * n
        for j in range(i + 1):
            a, d = cols[j]
            k_row[order[j]] = (a[i] * down, d * up)
        k[i] = _row_of(k_row)
        piv, _ = cols.pop()
        t = piv[i]
        for r in range(i):
            if piv[r]:
                b[r][i] = (piv[r] * up, t * down)
        b[i][i] = (up, down)
        # column j -= (a_ij / a_ii) column i, over the denominator d t
        for j, (a, d) in enumerate(cols):
            c = a[i]
            if c:
                a = [x * t - c * y for x, y in zip(a[:i], piv)]
                d *= t
                e = math.gcd(d, *a)
                cols[j] = ([x // e for x in a], d // e)
            else:
                cols[j] = (a[:i], d)
    return PAdicMatrix._of_rows(p, tuple(map(_row_of, b))), PAdicMatrix._of_rows(p, tuple(k))


def residue_bruhat(rows: list[list[int]], p: int) -> tuple[Permutation, list[list[int]]]:
    """w and b1 of m = b1 P_w b2 over F_p, with b1 and b2 upper triangular.

    Columns are processed left to right; the pivot is the bottom-most
    nonzero entry in a not-yet-pivoted row.  b2 is not kept, but its column
    operations clear m, which must end at P_w.  Raises SingularMatrixError
    when no pivot exists.
    """
    n = len(rows)
    a = [[e % p for e in row] for row in rows]
    b1 = [[int(i == j) for j in range(n)] for i in range(n)]
    assigned = [False] * n
    w_of_col = [0] * n
    for j in range(n):
        r = next((x for x in range(n - 1, -1, -1) if not assigned[x] and a[x][j] % p), None)
        if r is None:
            raise SingularMatrixError("matrix is singular mod p")
        assigned[r] = True
        w_of_col[j] = r + 1
        val = a[r][j] % p
        inv = pow(val, -1, p)
        # Scale row r so the pivot is 1; b1 gets column r scaled by the old pivot.
        a[r] = [(e * inv) % p for e in a[r]]
        for x in range(n):
            b1[x][r] = (b1[x][r] * val) % p
        # Clear upward in column j: row x -= c * row r for x < r.
        for x in range(r):
            c = a[x][j] % p
            if c:
                a[x] = [(a[x][t] - c * a[r][t]) % p for t in range(n)]
                for y in range(n):
                    b1[y][r] = (b1[y][r] + c * b1[y][x]) % p
        # Clear rightward in row r: col t -= c * col j for t > j.
        for t in range(j + 1, n):
            c = a[r][t] % p
            if c:
                for x in range(n):
                    a[x][t] = (a[x][t] - c * a[x][j]) % p
    w = Permutation(tuple(w_of_col))
    for i in range(n):
        for j in range(n):
            if a[i][j] != (1 if i + 1 == w(j + 1) else 0):
                raise DecompositionError(f"reduction did not reach a permutation matrix: {a}")
    return w, b1


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


def iwahori_cell(g: PAdicMatrix, check: bool = True) -> Cell:
    """Decompose g into its Iwahori cell with exact witnesses.

    ``iwasawa`` gives g = b k with diag(b) = p^kbar, and ``residue_bruhat``
    gives k = b1 P_w b2 mod p; b1 is lifted to the integers with entries in
    {0, ..., p-1}.  Then

        j = P_{w^-1} b1^{-1} k,   t0 = diag(b1),   n = b b1 t0^{-1} p^{-kbar},

    and j is found by back substitution against the triangular b1 on
    integer rows.  Every row of n2 = b1 t0^{-1} p^{-kbar} is an integer
    vector over one denominator, and n = b n2 is one ``_combined``
    product.  (kbar, w) is the unique cell label.  The witnesses n and
    t0 are always verified to lie in their subgroups; with ``check``, j is
    verified to lie in J and the cell to reconstruct g entry for entry,
    once each.  A failure raises DecompositionError.
    """
    b, k = iwasawa(g)  # checks g's class
    n, p = g.n, g.p
    kbar = tuple(_int_valuation(a[i], p) - _int_valuation(d, p) for i, (a, d) in enumerate(b.rows))
    k_rows = k.rows
    if any(d % p == 0 for _, d in k_rows):
        raise DecompositionError(f"Iwasawa k factor is not integral: {k!r}")
    w, b1 = residue_bruhat([[x * pow(d, -1, p) for x in row] for row, d in k_rows], p)
    # y = b1^{-1} k, bottom row first; each row an integer vector over one denominator
    y: list = [None] * n
    for r in range(n - 1, -1, -1):
        row, d = k_rows[r]
        terms = [(b1[r][c], y[c]) for c in range(r + 1, n) if b1[r][c]]
        den = math.lcm(d, *(e for _, (_, e) in terms))
        acc = [x * (den // d) for x in row]
        for coef, (vec, e) in terms:
            f = coef * (den // e)
            acc = [x - f * z for x, z in zip(acc, vec)]
        den *= b1[r][r]
        y[r] = _reduced(acc, den)
    j_factor = PAdicMatrix._of_rows(p, tuple(y[w(r) - 1] for r in range(1, n + 1)))
    # n = b n2 with n2 = b1 t0^{-1} p^{-kbar}: column c of b1 over
    # b1[c][c] p^{k_c}, so every row of n2 is an integer vector over D, the
    # lcm of those denominators
    up_down = [_p_power(p, kv) for kv in kbar]
    dens = [b1[c][c] * up for c, (up, _) in enumerate(up_down)]
    den = math.lcm(*dens)
    scale = [den // e * down for e, (_, down) in zip(dens, up_down)]
    n2 = [(list(map(operator.mul, row, scale)), den) for row in b1]
    t0 = PAdicMatrix._of_rows(p, tuple((tuple(b1[i][i] if c == i else 0 for c in range(n)), 1) for i in range(n)))
    cell = Cell(kbar, w, PAdicMatrix._of_rows(p, _combined(b.rows, n2)), t0, j_factor)
    if not cell.n_factor.is_upper_unitriangular():
        raise DecompositionError(f"n witness is not upper unitriangular: {cell.n_factor!r}")
    if any(
        any(a[:i]) or any(a[i + 1:]) or not a[i] or _int_valuation(a[i], p) != _int_valuation(d, p)
        for i, (a, d) in enumerate(t0.rows)
    ):
        raise DecompositionError(f"t0 witness is not a diagonal of units: {t0!r}")
    if check:
        if not cell.j_factor.is_in_iwahori():
            raise DecompositionError(f"j witness is not in the Iwahori subgroup: {cell.j_factor!r}")
        if cell.reconstruct() != g:
            raise DecompositionError(f"cell witnesses do not reconstruct {g!r}")
    return cell


def cell_label(g: PAdicMatrix) -> tuple[tuple[int, ...], Permutation]:
    """The (kbar, w) label of the cell of g, from minors on its bottom rows.

    Let D_{i,S} be the minor of g on its bottom i rows and the columns in
    S, and m_i the least valuation of D_{i,S} over all i-sets S (m_0 = 0).
    Then

        k_{n-i+1} = m_i - m_{i-1},

    and the least S with v(D_{i,S}) = m_i is T_i = w^{-1}({n-i+1, ..., n}),
    so w^{-1}(n-i+1) is the one column of T_i outside T_{i-1}.

    Why: in g = n . t . P_w . j with t = diag(p^kbar) t0, the bottom i rows
    of n are [0 | U] with U unitriangular, so left multiplication by n
    keeps every bottom-row minor.  The bottom i rows of t . P_w are those
    rows of t times the coordinate rows of the columns T_i, so
    D_{i,S}(g) = +-(t_{n-i+1} ... t_n) det j[T_i, S].  As j is integral and
    upper triangular mod p with unit diagonal, det j[T_i, S] is integral,
    a unit for S = T_i, and divisible by p unless T_i <= S entry by entry
    in sorted order (minors of a triangular matrix vanish below that
    order).  So T_i is the least minimizer in every order that refines
    the entrywise one; the least in the order of the bitmasks
    sum_{s in S} 2^s is the one the pass finds.

    The sets T_i are nested, T_i = T_{i-1} u {w^{-1}(n-i+1)}, so the
    minimum m_i over all i-sets is already reached among the n - i + 1
    sets T_{i-1} u {j}.  ``_minors_pass`` computes exactly those minors,
    one level at a time, by a fraction-free elimination that also records
    the phase terms of ``eval_matrix``.  If every candidate minor of some
    level vanishes, g is singular and SingularMatrixError is raised.

    >>> cell_label(PAdicMatrix.from_rows(3, [[0, 1], [3, 0]]))
    ((0, 1), Permutation((2, 1)))
    """
    kbar, w, _ = _minors_pass(g.rows, g.p)
    return kbar, w


def _minors_pass(
    rows: Sequence[tuple[Sequence[int], int]], p: int
) -> tuple[tuple[int, ...], Permutation, list[tuple[int, int, int]]]:
    """The label (kbar, w) of ``cell_label`` and the phase terms of psi on n.

    g is given by its cleared rows: row r of g is a_r / d_r for the pair
    (a_r, d_r) of an integer vector and any positive integer.  d_r need
    not be the lcm of the row's denominators, and a_r need not be
    reduced: the coset terms g . rep of the principal series and of the
    functional equations arrive unreduced from ``_times``.

    The elimination.  A fraction-free (Bareiss) column elimination on the
    integer matrix A with rows a_r, taking the rows bottom first.  At the
    step for row r the pivot is the live column c whose working entry
    W[r][c] has the least valuation, ties to the least c (the scan stops
    at the first entry of valuation 0, and tests x % p^best before taking
    the valuation of any later entry).  Column c is then frozen, and
    every other live column j is updated on the rows above r:

        W[i][j] = (W[i][j] t - W[i][c] W[r][j]) // prev,

    with t = W[r][c] the new pivot and prev the one before it (1 at the
    start); the division is exact.  Row r gives k_r = v(t) - v(prev) -
    v(d_r) and w^{-1}(r) = c.  Each step touches r entries of each live
    column, O(n^3) integer operations in all, with integers no larger
    than the minors of A.

    Why it is the label of ``cell_label``:

    * Bordered minors.  By Sylvester's identity, after the steps for the
      rows below r (the set B, with the pivot columns P) the working entry
      W[i][j] is the minor of A on the rows {i} u B and the columns P u {j},
      bordered in a fixed order of its rows and columns.  The minors of A
      are those of g times the product of the d_r of their rows, so every
      minor on the same rows is shifted by the same valuation, whatever
      the d_r are: the minimizing columns do not move, and k_r subtracts
      v(d_r).
    * Candidate sets.  By induction P = T_{l-1}, the least minimizing set
      one level down, so the entries of row r are the minors on the
      candidate sets T_{l-1} u {j}.  The nesting shown in ``cell_label``
      puts T_l among them, so the least valuation among them is m_l; and
      among the candidates with that valuation the least bitmask is the
      least j, the pivot.  (A Laplace table of every minor on the bottom
      rows, about n 2^(n-1) multiply-adds, gives the same (kbar, w); it is
      kept in the tests as the oracle of this pass.)
    * Singular input.  For invertible g the bottom rows have full rank, so
      some candidate minor of each level is nonzero; for singular g the
      last level, det A, is 0.  So SingularMatrixError is raised exactly
      when g is singular.

    The phase.  Write g = n . b' with b' = p^kbar . t0 . P_w . j.  For
    1 <= i < n let T be the least minimizing column set of the bottom
    rows i+1..n (T_{n-i} above), R the rows i+2..n, and

        N_i = D_{{i} u R, T}(g),   D_i = D_{{i+1} u R, T}(g).

    Then on the support (kbar dominant for w)

        psi(n_{i,i+1}) = psi(N_i / D_i),

    so the value of psi on n is the sum of the phases of the N_i / D_i.
    Both are entries of the pivot column frozen at the step for row i+1:
    D_i is its pivot t and N_i the entry one row above it, bordered in
    the same order, so their ratio carries no sign.  (By Cramer's rule
    that ratio is the coefficient of row i+1 when row i of g, cut to the
    columns T, is written in the rows {i+1} u R cut to T.)  The cleared
    minors differ in one row, so the ratio of the minors of g is
    W[i][c] d_{i+1} / (t d_i), for any positive d_r and unreduced a_r;
    it is only formed when its valuation is negative, as psi sees nothing
    else.  For each i with W[i][c] nonzero the pass records the integers
    (W[i][c] d_{i+1}, t d_i, u) with u = v(t d_i): the valuation is
    negative when p^u does not divide the first.  ``whittaker`` forms the
    ratios only on the support, where the formula holds.

    Why: left multiplication by n adds to row i of b' the multiple
    n_{i,i+1} of row i+1 plus multiples of the rows in R, and to the rows
    in R multiples of rows in R, so

        N_i / D_i = n_{i,i+1} + D_{{i} u R, T}(b') / D_{{i+1} u R, T}(b').

    Row r of b' is p^{k_r} t0_r times row w^{-1}(r) of j.  With
    a = w^{-1}(i), b = w^{-1}(i+1) and S' = w^{-1}(R), T = {b} u S' and the
    second term is +-p^{k_i - k_{i+1}} (t0_i / t0_{i+1}) det j[{a} u S', T]
    / det j[T, T].  The denominator is a unit, because j[T, T] is upper
    triangular mod p with unit diagonal.  If a < b, dominance gives
    k_i - k_{i+1} >= 0, so the term is p-integral.  If a > b, dominance
    gives k_i - k_{i+1} >= -1; the sorted rows {a} u S' are then entrywise
    >= the sorted columns T and differ from them somewhere, so the minor
    is divisible by p by the lemma of ``cell_label``, and the term is
    again p-integral.  Either way psi does not see it.
    """
    n = len(rows)
    kbar = [0] * n
    window = [0] * n
    dvs = [_int_valuation(d, p) for _, d in rows]
    # live column j -> its working entries on the rows not yet taken
    cols = dict(enumerate(map(list, zip(*(a for a, _ in rows)))))
    prev, prev_v = 1, 0
    terms = []
    for r in range(n - 1, -1, -1):
        best = None
        for j, col in cols.items():
            x = col[r]
            if x and (best is None or x % bound):
                best, best_v = j, _int_valuation(x, p)
                if not best_v:
                    break
                bound = p**best_v
        if best is None:
            raise SingularMatrixError("matrix is singular")
        piv = cols.pop(best)
        t = piv.pop()
        kbar[r] = best_v - prev_v - dvs[r]
        window[best] = r + 1
        if r and piv[-1]:
            # N_i / D_i for i = r, over the denominators d_{r-1}, d_r
            terms.append((piv[-1] * rows[r][1], t * rows[r - 1][1], best_v + dvs[r - 1]))
        for j, col in cols.items():
            s = col.pop()
            if s:
                cols[j] = [(x * t - y * s) // prev for x, y in zip(col, piv)]
            elif t != prev:
                cols[j] = [x * t // prev for x in col]
        prev, prev_v = t, best_v
    # each row set one entry of window and each column was popped once, so
    # window is a permutation by construction
    return tuple(kbar), Permutation._of(tuple(window)), terms
