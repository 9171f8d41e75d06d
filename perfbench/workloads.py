"""The three benchmark workloads: input generation, requests and oracles.

Every workload turns a seed into a fixed list of requests (one "pass").
The closed loop in ``drive`` runs them one at a time, cycling through the
pass, until the run's time is up and at least one whole pass is done.  A
request returns its serialized output and, when an oracle rejects it, a
one-line reason.

The program is called through module attributes (``padic.cell_label``,
not an imported name) so that the tracer's wrappers see every call the
benchmark makes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import statistics
import time
from fractions import Fraction

from steinwhit import affine_weyl, cli, hecke, padic, principal_series, sampling, whittaker
from steinwhit.affine_weyl import ExtAffineElement
from steinwhit.padic import PAdicMatrix

# Each size has its own latency mode, each about twice as slow as the size
# below (about 3 and 23 ms for n = 2 and 5 on a 2-vCPU Xeon VM).  In the
# ratio n = 2 : 3 : 4 : 5 = 1 : 1 : 3 : 2 the median is the middle of the
# n = 4 requests and the 90th percentile lies two thirds into the n = 5
# requests, each at least 10 points of rank away from a mode boundary; a
# plain cycle would put the median on the boundary between n = 3 and 4.
CELLS_SHAPES = [(n, p) for n in (2, 3, 4, 4, 4, 5, 5) for p in (2, 3, 5)]
CELLS_ROUNDS = 6
CELLS_POOL = 8
CELLS_PARTS = 2 + CELLS_POOL

VERIFY_CONFIGS = [(2, 2), (2, 3), (2, 5), (3, 2), (3, 3), (4, 2)]
VERIFY_CLI_SAMPLES = 2
VERIFY_POINTS = 4

HECKE_SIZES = (4, 5)
HECKE_PROFILE = (4, 8, 12)
HECKE_X_PER_LENGTH = 10


# ---------------------------------------------------------------- the loop


def drive(requests, do_request, seconds: float, key=None) -> dict:
    """Closed loop, one client, one request in flight.

    Stops when the time is up, but not before a whole pass, so every
    request has a cost.  Outputs of the first pass are hashed; every later
    repeat of a request must reproduce its first output byte for byte.

    A request's cost is the fastest of its repeats.  On a shared 2-vCPU VM
    the same code runs up to 1.8 times slower from one millisecond to the
    next, CPU time as much as wall time, so the slowdown comes from the
    host, not from this process.  A request of a few milliseconds has
    repeats in moments when nothing slowed it and its fastest repeat is
    steady from run to run; the fastest repeat of a request of a second
    moves by 15% or more.  So a long request is split into short parts:
    with ``key``, the requests with the same ``key(request)`` are the
    parts of one request in the latency statistics and in
    ``best_ops_per_s``, with their costs summed.
    """
    first: list[str] = []
    best = [float("inf")] * len(requests)
    failures: list[str] = []
    latency_sum = 0.0
    start = time.perf_counter()
    i = 0
    while i < len(requests) or time.perf_counter() - start < seconds:
        k = i % len(requests)
        t0 = time.perf_counter()
        try:
            out, problem = do_request(requests[k])
        except Exception as exc:  # a crash is a failed request, not a crashed run
            out, problem = "", f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        latency_sum += latency
        best[k] = min(best[k], latency)
        if i < len(requests):
            first.append(out)
        elif problem is None and out != first[k]:
            problem = "output differs from the first run of the same request"
        if problem is not None:
            failures.append(f"request {k}: {problem}")
        i += 1
    elapsed = time.perf_counter() - start
    digest = hashlib.sha256("\n".join(first).encode()).hexdigest()
    costs: dict = {}
    for j, request in enumerate(requests):
        group = j if key is None else key(request)
        costs[group] = costs.get(group, 0.0) + best[j]
    costs = list(costs.values())
    return {
        "attempted": i,
        "failed": len(failures),
        "failures": failures[:5],
        "elapsed_s": elapsed,
        "latency_sum_s": latency_sum,
        "best_ops_per_s": len(costs) / sum(costs),
        "latency_p50_s": statistics.median(costs),
        "latency_p90_s": statistics.quantiles(costs, n=10, method="inclusive")[-1],
        "samples": len(costs),
        "repeats": i // len(requests),
        "digest": digest,
    }


# ---------------------------------------------------------------- helpers


def _psi_of_unipotent(u: PAdicMatrix) -> Fraction:
    """Phase of the additive character on u: the oracle for the psi offset.

    W(u g) = psi(u) W(g) and W is right Iwahori invariant, so on
    g = u . t . diag(p^kbar) . P_w . j the value is psi(u) times the cell
    value of (kbar, w).
    """
    n, p = u.n, u.p
    total = sum((padic.frac_psi_phase(u.entries[i][i + 1], p) for i in range(n - 1)), Fraction(0))
    return total % 1


def _cell_case(rng: random.Random, n: int, p: int):
    """One matrix as ``sampling.random_cell_product`` builds it, keeping u."""
    kbar = sampling.random_weight(rng, n, -2, 2)
    w = sampling.random_permutation(rng, n)
    u = sampling.random_upper_unipotent(rng, n, p)
    g = (
        u
        * sampling.random_torus_units(rng, n, p)
        * PAdicMatrix.weight_matrix(p, kbar)
        * PAdicMatrix.permutation(p, w)
        * sampling.random_iwahori(rng, n, p)
    )
    return g, kbar, w, _psi_of_unipotent(u)


def _expected_value(kbar, w, eps_exp: int, psi: Fraction) -> whittaker.WhittakerValue:
    base = whittaker.eval_cell(kbar, w, eps_exp)
    if base.zero:
        return base
    return whittaker.WhittakerValue.monomial(base.sign, base.eps_exp, base.q_exp, psi)


def _value_json(value) -> str:
    return json.dumps(whittaker.serialize(value), sort_keys=True)


# ---------------------------------------------------------------- cells


def cells_setup(seed: int):
    """Each cells request as CELLS_PARTS consecutive parts.

    The parts are the witness decomposition, the value and one part per
    pooled translate's label; ``drive`` sums them back into one request
    by its first element.  A part takes about a millisecond, short enough for its
    fastest repeat to fall in a moment when nothing slowed the machine.
    """
    rng = random.Random(f"cells:{seed}")
    pools = {shape: [sampling.random_iwahori(rng, *shape) for _ in range(CELLS_POOL)] for shape in sorted(set(CELLS_SHAPES))}
    cases = [
        _cell_case(rng, n, p) + (pools[(n, p)],)
        for _ in range(CELLS_ROUNDS)
        for n, p in CELLS_SHAPES
    ]
    return [(k, case, part) for k, case in enumerate(cases) for part in range(CELLS_PARTS)]


def cells_request(request):
    _, (g, kbar, w, psi, pool), part = request
    if part == 0:
        cell = padic.iwahori_cell(g, check=True)
        out = f"{cell.kbar}{cell.w.window}"
        if (cell.kbar, cell.w) != (kbar, w):
            return out, f"iwahori_cell label {out} != {kbar}{w.window}"
        if cell.reconstruct() != g:
            return out, "witnesses do not reconstruct g"
        return out, None
    if part == 1:
        value = whittaker.eval_matrix(g, 1)
        out = _value_json(value)
        if value != _expected_value(kbar, w, 1, psi):
            return out, f"eval_matrix gave {out} at {padic.matrix_to_json(g)}"
        return out, None
    label = padic.cell_label(g * pool[part - 2])
    out = f"{label[0]}{label[1].window}"
    if label != (kbar, w):
        return out, f"cell_label of an Iwahori translate left the cell of {padic.matrix_to_json(g)}"
    return out, None


# ---------------------------------------------------------------- hecke


def _walk(rng: random.Random, start: ExtAffineElement, steps: int, step: int) -> tuple[int, ...]:
    """Random word i_1 ... i_k with each s_i changing the length by ``step``.

    Every one of the n simple reflections is tried at every step, so the
    cost is the same for every seed.  An affine Weyl group has no longest
    element, so an ascent always exists; a descent exists at length > 0.
    """
    n = start.n
    reflections = [ExtAffineElement.simple_reflection(n, i) for i in range(n)]
    z, length, word = start, affine_weyl.length_formula(start), []
    for _ in range(steps):
        moves = [i for i in range(n) if affine_weyl.length_formula(z * reflections[i]) == length + step]
        i = rng.choice(moves)
        z, length = z * reflections[i], length + step
        word.append(i)
    return tuple(word)


def _element(n: int, word: tuple[int, ...], rotation: int) -> ExtAffineElement:
    """s_{i_1} ... s_{i_k} times a power of the rotation, which has length 0."""
    z = ExtAffineElement.identity(n)
    for i in word:
        z = z * ExtAffineElement.simple_reflection(n, i)
    return z * ExtAffineElement.rotation(n) ** rotation


def hecke_setup(seed: int):
    """Elements x of each length in the profile, each times two short y.

    x is a random word of ascents times a rotation, so its length is
    exactly the profile's.  The first y is three further ascents (length
    3, len(xy) = len(x) + 3), the second two descents (length 2,
    len(xy) = len(x) - 2), each times a rotation, which has length 0.  So
    each request's product has a similar number of terms whatever the
    seed, and set-up does the same work for every seed.  No length query
    can exceed max(profile) + 3, and the first kind of y reaches it, so
    every seed grows the lazily built length ball to exactly that radius.
    Set-up ends with one untimed pass, which grows it, so the ball's cost
    shows in ``setup_s``, whichever request first needs it.
    """
    rng = random.Random(f"hecke:{seed}")
    cases = []
    for n in HECKE_SIZES:
        for length in HECKE_PROFILE:
            for _ in range(HECKE_X_PER_LENGTH):
                x = _element(n, _walk(rng, ExtAffineElement.identity(n), length, 1), rng.randrange(-2 * n, 2 * n + 1))
                for y_len, step in ((3, 1), (2, -1)):
                    y = _element(n, _walk(rng, x, y_len, step), rng.randrange(n))
                    if affine_weyl.length_formula(x * y) != length + step * y_len:
                        raise AssertionError(f"set-up built a wrong product length for {x!r} {y!r}")
                    cases.append((x, y, rng.randrange(n)))
    for case in cases:
        hecke_request(case)
    return cases


def _hecke_json(h: hecke.HeckeElement) -> str:
    return " + ".join(sorted(f"{c!r}*T{x.lam}{x.w.window}" for x, c in h.terms()))


def hecke_request(case):
    x, y, eps_exp = case
    n = x.n
    length = affine_weyl.length_ext(x)
    word, m = affine_weyl.reduced_word(x)
    product = hecke.multiply(hecke.HeckeElement.basis(x), hecke.HeckeElement.basis(y))
    char = hecke.character_of(product, eps_exp)
    out = f"{length} {word} {m} {_hecke_json(product)}"
    if not len(word) == length == affine_weyl.length_formula(x):
        return out, f"lengths disagree on {x!r}: word {len(word)}, length_ext {length}"
    rebuilt = ExtAffineElement.rotation(n) ** m
    for i in reversed(word):
        rebuilt = ExtAffineElement.simple_reflection(n, i) * rebuilt
    if rebuilt != x:
        return out, f"reduced_word of {x!r} multiplies to {rebuilt!r}"
    if char != hecke.steinberg_character(x, eps_exp) * hecke.steinberg_character(y, eps_exp):
        return out, f"character not multiplicative on T{x!r} T{y!r}"
    return out, None


# ---------------------------------------------------------------- verify


def verify_setup(seed: int):
    """The identity suites of ``verify all``, per acceptance config, in parts.

    Each config is one request, made of parts that take from a fraction
    of a millisecond to some tens: ``verify hecke`` and ``verify
    whittaker`` on one sample point each through ``steinwhit.cli.main``
    in this process, and the eigenvector identities of the principal
    series at VERIFY_POINTS random points, one part per point and
    generator.  ``drive`` sums a config's parts back into one request by
    its first element.
    """
    rng = random.Random(f"verify:{seed}")
    requests = []
    for config, (n, p) in enumerate(VERIFY_CONFIGS):
        eps_exp = 1 % n
        minus = principal_series.InducedFunction.eigenvector(n, p, eps_exp, "minus")
        plus = principal_series.InducedFunction.eigenvector(n, p, eps_exp, "plus")
        sign = (-1) ** (n - 1)
        args = ["--n", str(n), "--p", str(p), "--eps-exp", str(eps_exp)]
        parts = [("cli", ["verify", "hecke", *args])]
        parts += [("cli", ["verify", "whittaker", *args, "--samples", "1", "--seed", str(rng.randrange(1 << 30))])
                  for _ in range(VERIFY_CLI_SAMPLES)]
        for _ in range(VERIFY_POINTS):
            g = sampling.random_group_element(rng, n, p)
            parts += [("eigen", minus, i, g, (-1, 0)) for i in range(n)]
            parts.append(("eigen", minus, "rotation", g, (sign, eps_exp)))
            parts += [("eigen", plus, i, g, (p, 0)) for i in range(1, n)]
        requests += [(config, part) for part in parts]
    return requests


def verify_request(request):
    """One part.  ``cli``: exit 0 and every check passed.  ``eigen``: the
    generator acts on the eigenvector by its eigenvalue c eps^e at g."""
    _, part = request
    if part[0] == "cli":
        argv = part[1]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
        out = stdout.getvalue()
        if code != 0:
            return out, f"{' '.join(argv)} exited {code}"
        failed = [doc["name"] for doc in json.loads(out) if not doc["passed"]]
        if failed:
            return out, f"{' '.join(argv)} failed {failed}"
        return out, None
    _, func, gen, g, (c, e) = part
    value = principal_series.apply_generator(func, gen, g)
    out = repr(value)
    if value != func.eval(g).times_monomial(c, e):
        return out, f"generator {gen} does not act by {c} eps^{e} at {padic.matrix_to_json(g)}"
    return out, None


SETUPS = {"cells": cells_setup, "verify": verify_setup, "hecke": hecke_setup}
REQUESTS = {"cells": cells_request, "verify": verify_request, "hecke": hecke_request}
