"""The Iwahori cell label and the phase of psi on n, from minors.

Every invertible g lies in exactly one Iwahori cell (``iwahori`` gives
its witnesses), and the pair (kbar, w) labels it.  This module reads
that label off the valuations of the minors on the bottom rows of g, and
from the same minors the integer terms of the additive character's phase
on n, of which ``whittaker`` forms the phase only on the support.  One
fraction-free (Bareiss) column elimination, bottom row first,
``_minors_pass``, computes exactly the minors the label needs, those
that border the least minimizing column set of the level below, in
O(n^3) exact integer operations, on the rows of g given as integer
vectors over any positive denominators.  ``cell_label`` and
``whittaker.eval_matrix`` call it on a matrix's stored rows;
``principal_series._coset_passes`` on the rows of each coset term
g . rep as ``padic._times`` leaves them, for ``apply_generator`` and the
identity checks of both verification suites.  No witness is built.  The
formulas and their proofs are in the docstrings of ``cell_label`` and
``_minors_pass``.
"""

from __future__ import annotations

from collections.abc import Sequence

from .padic import PAdicMatrix, SingularMatrixError, _int_valuation
from .weyl import Permutation, _check_type

__all__ = ["cell_label"]


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
    level vanishes, g is singular and SingularMatrixError is raised.  g is
    a ``PAdicMatrix`` (else TypeError).

    >>> cell_label(PAdicMatrix.from_rows(3, [[0, 1], [3, 0]]))
    ((0, 1), Permutation((2, 1)))
    """
    _check_type("g", g, PAdicMatrix)
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
