"""Independent second algorithms that the tests compare the library against.

The library evaluates a cell (kbar, w) by one closed form that vanishes
off the w-dominance cone (``whittaker.eval_cell``).  The paper derives
that form from the diagonal recursion and the longest-element shift
lemma; both live here, as oracles, and not in ``src/``.

``PhaseSum`` tests a sum of p-power roots of unity for zero by its
sparse coset test; ``dense_class_is_zero`` is the dense test it
replaced, which rewrites every exponent through the minimal polynomial.

``affine_product`` forms (lam + w.mu, w v) from ``act_weight`` and the
permutations' values, through the validating constructors: the library's
product adds w.mu in place and composes windows inline, in one frame.

``reduced_word`` forms y = x r^{-m} as a product with ``_rotation(n, -m)``
and reads w_y^{-1} from ``Permutation.inverse``, then finds each descent
by a fresh scan from index 0; the library reads both lists off the
closed form of r^{-m} and resumes its scan where a peel cannot have
made a new descent.  ``multiply`` is the fold of ``mult_generator``,
``mult_rotation`` and ``scaled`` over the right factor's terms, where
the library walks one term dict through its step kernel.

``hecke_cosets`` lists the right cosets of J x J modulo J for any x
of the extended affine Weyl group, as products of ``generator_cosets``
along the reduced word of x, times the rotation power: the operator T_x
on an Iwahori-fixed function, which the library builds only for one
generator at a time.

``eval_recursive`` keeps its own descent-suffix computation and never
calls ``weyl.dominance_shift``, which shares the dominance thresholds
with the closed form: a fault in those thresholds then shows up as a
disagreement instead of being checked against itself.

``matrix_of_entries`` and ``matrix_repr`` are the document reader and
the ``repr`` that went through ``Fraction``: each entry is parsed by
``Fraction(e)`` and printed by ``str(Fraction)``, while the library
reads every entry as an integer pair and prints from the stored rows.

Pytest does not collect this file; tests import it by name, as they
import helpers from ``test_padic``.
"""

from fractions import Fraction

from steinwhit import weyl
from steinwhit.affine_weyl import ExtAffineElement, _rotation, realize
from steinwhit.hecke import HeckeElement, mult_generator, mult_rotation
from steinwhit.padic import _RATIONAL_RE, MatrixFormatError, PAdicMatrix
from steinwhit.principal_series import generator_cosets
from steinwhit.weyl import Permutation, Weight
from steinwhit.whittaker import WhittakerValue


def affine_product(x: ExtAffineElement, y: ExtAffineElement) -> ExtAffineElement:
    """(lam, w) (mu, v) = (lam + w.mu, w v), with w.mu from ``act_weight``
    and (w v)(i) = w(v(i)); ValueError when the sizes differ."""
    w, v = x.w, y.w
    if w.n != v.n:
        raise ValueError("sizes differ")
    lam = tuple(a + b for a, b in zip(x.lam, w.act_weight(y.lam)))
    return ExtAffineElement(lam, Permutation(tuple(w(v(i)) for i in range(1, w.n + 1))))


def reduced_word(x: ExtAffineElement) -> tuple[tuple[int, ...], int]:
    """The lexicographically least reduced word of x and its rotation
    power m, peeled from the product y = x * r^{-m}."""
    n = x.n
    m = x.rotation_exponent()
    y = x * _rotation(n, -m)
    lam, winv = list(y.lam), list(y.w.inverse().window)
    word: list[int] = []

    def first_descent() -> int | None:
        return next((j for j in range(n) if lam[j - 1] - lam[j] + (winv[j - 1] > winv[j]) > (j == 0)), None)

    while (i := first_descent()) is not None:
        word.append(i)
        if i:
            lam[i - 1], lam[i] = lam[i], lam[i - 1]
            winv[i - 1], winv[i] = winv[i], winv[i - 1]
        else:
            lam[0], lam[-1] = lam[-1] - 1, lam[0] + 1
            winv[0], winv[-1] = winv[-1], winv[0]
    return tuple(word), m


def multiply(a: HeckeElement, b: HeckeElement) -> HeckeElement:
    """The sum over the terms c T_y of b of (a T_y) c, each a fold of
    ``mult_generator`` along the word of y, ``mult_rotation`` and
    ``scaled``, accumulated in one ``_sum``."""
    a._check(b)

    def products():
        for y, c in b._terms.items():
            word, m = reduced_word(y)
            acc = a
            for i in word:
                acc = mult_generator(acc, i)
            if m:
                acc = mult_rotation(acc, m)
            yield acc.scaled(c)

    return a._wrap({})._sum(products())


def hecke_cosets(x: ExtAffineElement, p: int) -> list[PAdicMatrix]:
    """Right coset representatives of J x J modulo J: the products
    rep_1 ... rep_k u^m, rep_j over ``generator_cosets(n, p, i_j)``, for
    the reduced word (i_1, ..., i_k) of x and its rotation power m, u^m
    the ``realize``d rotation power.  For a reduced word J x J is the
    product of the double cosets J s_{i_j} J and of u^m, which normalizes
    J, and the product map onto its p^k cosets is a bijection: so
    (T_x f)(g) is the sum of f(g . rep) over this list."""
    n = x.n
    word, m = reduced_word(x)
    reps = [PAdicMatrix.identity(n, p)]
    for i in word:
        reps = [a * b for a in reps for b in generator_cosets(n, p, i)]
    u_m = realize(ExtAffineElement.rotation(n, m), p)
    return [a * u_m for a in reps]


def descent_suffix_counts(w: Permutation) -> Weight:
    """Entry i counts descents of ``w**-1`` at places >= i (entry n is 0)."""
    winv = w.inverse().window
    counts = [0] * w.n
    for i in range(w.n - 1, 0, -1):
        counts[i - 1] = counts[i] + (1 if winv[i - 1] > winv[i] else 0)
    return tuple(counts)


def _diag_steps(kbar: Weight, eps_exp: int, n: int) -> WhittakerValue:
    """Walk the diagonal recursion one unit step at a time from zero."""
    sign, q_exp, eps_total = 1, 0, 0
    for i, k in enumerate(kbar, start=1):
        for _ in range(abs(k)):
            if k > 0:
                eps_total += eps_exp
                q_exp -= n + 1 - 2 * i
            else:
                eps_total -= eps_exp
                q_exp += n + 1 - 2 * i
            sign *= (-1) ** (n - 1)
    return WhittakerValue.monomial(sign, eps_total % n, q_exp)


def eval_recursive(kbar: Weight, w: Permutation, eps_exp: int = 0, base: int = 1) -> WhittakerValue:
    """Recompute the cell value through the recursion identities.

    ``base`` is the value at the identity (1 by normalization); passing
    base=0 propagates the zero seed through every identity and must give
    the zero function.
    """
    n = w.n
    if len(kbar) != n:
        raise ValueError("weight length must match the permutation size")
    if base not in (0, 1):
        raise ValueError("base must be 0 or 1")

    def diag(weight: Weight) -> WhittakerValue:
        if base == 0:
            return WhittakerValue.zero_value()
        if any(weight[i] < weight[i + 1] for i in range(n - 1)):
            return WhittakerValue.zero_value()
        return _diag_steps(weight, eps_exp, n)

    if w == Permutation.identity(n):
        return diag(kbar)

    shift = descent_suffix_counts(w)
    numerator = diag(tuple(k + s for k, s in zip(kbar, shift)))
    if numerator.zero:
        return WhittakerValue.zero_value()
    denominator = diag(shift)
    if denominator.zero:
        raise ArithmeticError(f"diagonal value at the dominance shift {shift} vanished")
    ell = w.length()
    sign = numerator.sign * denominator.sign * (-1) ** ell
    q_exp = numerator.q_exp - denominator.q_exp - ell
    eps_e = (numerator.eps_exp - denominator.eps_exp) % n
    return WhittakerValue.monomial(sign, eps_e, q_exp)


def conjugated_shift(w: Permutation) -> tuple[Weight, int]:
    """Weight of w0.shift(w).w0.shift(w0) and the central exponent z.

    Conjugating a diagonal weight by the longest element reverses it;
    multiplying diagonals adds exponents.  The returned weight differs
    from ``dominance_shift(w0 * w)`` by ``z`` in every entry; if the
    difference is not constant, ArithmeticError is raised.  The shift is
    read through the ``weyl`` module, so a test can replace it there.
    """
    n = w.n
    w0 = Permutation.longest(n)
    shift_w = weyl.dominance_shift(w)
    shift_w0 = weyl.dominance_shift(w0)
    weight = tuple(shift_w[n - i] + shift_w0[i - 1] for i in range(1, n + 1))
    target = weyl.dominance_shift(w0 * w)
    diffs = {target[i] - weight[i] for i in range(n)}
    if len(diffs) != 1:
        raise ArithmeticError(
            f"conjugated shift {weight} of {w.window} is not a central translate of {target}"
        )
    return weight, diffs.pop()


def dense_class_is_zero(terms: dict, p: int) -> bool:
    """Whether sum_t c_t exp(2 pi i t) vanishes, for ``terms`` {t: c} with
    each phase t a ``Fraction`` in [0, 1) of p-power denominator.

    With p^M the largest denominator, the coefficients go into a dense
    array over the exponents mod p^M.  Exponents at or above
    (p-1) p^{M-1} are rewritten through the minimal polynomial relation

        zeta^{(p-1) p^{M-1}} = -(1 + zeta^{p^{M-1}} + ... + zeta^{(p-2) p^{M-1}}),

    after which the surviving exponents form a Z-basis, so the sum vanishes
    exactly when every coefficient does.  It costs p^M slots.
    """
    big_m = 0
    for t in terms:
        den, m = t.denominator, 0
        while den > 1:
            den //= p
            m += 1
        big_m = max(big_m, m)
    if big_m == 0:
        return sum(terms.values(), Fraction(0)) == 0
    order = p**big_m
    coeffs = [Fraction(0)] * order
    for t, c in terms.items():
        coeffs[int(t * order)] += c
    threshold = (p - 1) * p ** (big_m - 1)
    step = p ** (big_m - 1)
    for t in range(order - 1, threshold - 1, -1):
        c = coeffs[t]
        if c:
            coeffs[t] = Fraction(0)
            for i in range(p - 1):
                coeffs[t - threshold + i * step] -= c
    return all(c == 0 for c in coeffs)


def matrix_of_entries(p: int, entries: list) -> PAdicMatrix:
    """The matrix of the rows of a document whose p and list of rows
    ``padic._matrix_document`` has checked, read through ``Fraction``: a
    square array of integers or strings "a" or "a/b" in lowest terms, else
    MatrixFormatError naming the first bad row or entry."""
    n = len(entries)
    rows = []
    for row in entries:
        if not isinstance(row, list) or len(row) != n:
            raise MatrixFormatError("'entries' must be a square array of rationals")
        parsed = []
        for e in row:
            if isinstance(e, bool) or not isinstance(e, (str, int)):
                raise MatrixFormatError(f"bad rational entry {e!r}")
            m = _RATIONAL_RE.fullmatch(e) if isinstance(e, str) else None
            if isinstance(e, str) and m is None:
                raise MatrixFormatError(f"bad rational entry {e!r}: expected an integer or a/b in lowest terms")
            try:
                x = Fraction(e)
            except (ValueError, ZeroDivisionError) as exc:
                raise MatrixFormatError(f"bad rational entry {e!r}") from exc
            if m is not None and m[2] is not None and x.denominator != int(m[2]):
                raise MatrixFormatError(f"rational entry {e!r} is not in lowest terms")
            parsed.append(x)
        rows.append(parsed)
    return PAdicMatrix.from_rows(p, rows)


def matrix_repr(m: PAdicMatrix) -> str:
    """``repr(m)``, written from the ``Fraction`` view."""
    body = "; ".join(" ".join(str(e) for e in row) for row in m.entries)
    return f"PAdicMatrix(p={m.p}, [{body}])"
