"""The Iwahori cell decomposition with exact witnesses.

Every invertible g lies in exactly one Iwahori cell,

    g = n . diag(p^kbar) . t0 . P_w . j,

with n upper unitriangular over Q, t0 diagonal with unit entries, P_w the
permutation matrix of w and j in the Iwahori subgroup J (integral, upper
triangular and invertible mod p).  The pair (kbar, w) labels the cell;
the other factors are witnesses, a ``padic.Cell``.  ``minors`` reads the
label alone off minors, with no witness; this module finds the label
with its witnesses, by elimination, for ``steinwhit decompose``:

* ``iwasawa`` writes g = b k with b upper triangular over Q and k in
  K = GL_n(Z_p), by column operations over Z_p on integer columns;
* ``residue_bruhat`` finds w and b1 of k = b1 P_w b2 mod p, by row/column
  clearing from a bottom-most pivot per column;
* ``iwahori_cell`` gets j by back substitution against the integer lift
  of b1, and n and t0 by pushing b1 through the diagonal of b.  With
  ``check`` the witnesses are verified, once, to lie in their subgroups
  and to reconstruct g exactly; ``iwasawa`` itself checks nothing (its
  tests hold it to a ``Fraction`` oracle).

It reads and writes the integer rows of ``padic.PAdicMatrix``, with no
``Fraction`` in between; n = b . n2 is one ``padic._combined`` product.
A broken invariant raises ``padic.DecompositionError``, which
``python -O`` does not switch off.  Lifts from F_p to Z always use the
representatives {0, ..., p-1}.
"""

from __future__ import annotations

import math
import operator

from .padic import (
    Cell,
    DecompositionError,
    PAdicMatrix,
    SingularMatrixError,
    _columns,
    _combined,
    _int_valuation,
    _p_power,
    _reduced,
    _row_of,
)
from .weyl import Permutation, _check_type

__all__ = ["iwahori_cell", "iwasawa", "residue_bruhat"]


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
