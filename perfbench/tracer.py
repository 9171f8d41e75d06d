"""Per-layer spans, installed from outside the program.

A wrapper replaces a traced function at every binding site: its home
module, every other ``steinwhit`` module that imported the name (for
example ``whittaker.iwahori_cell`` and ``principal_series.cell_label``),
and the class attribute for methods.  Each call opens a span; when it
closes, its duration is added to the function's total and, minus the time
of the spans it opened, to its self time.  Spans are folded into these
per-function sums in memory as they close, so a run with millions of
spans keeps a fixed footprint; the sums are written out once, at the end.

``weyl`` is not traced: its calls take under a microsecond, less than a
wrapper costs.  ``sampling`` runs only in set-up.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# metric prefix -> (home module, attribute or Class.method)
TRACED = {
    "padic.iwasawa": ("steinwhit.padic", "iwasawa"),
    "padic.residue_bruhat": ("steinwhit.padic", "residue_bruhat"),
    "padic.cell_label": ("steinwhit.padic", "cell_label"),
    "padic.iwahori_cell": ("steinwhit.padic", "iwahori_cell"),
    "padic.matmul": ("steinwhit.padic", "PAdicMatrix.__mul__"),
    "padic.inverse": ("steinwhit.padic", "PAdicMatrix.inverse"),
    "whittaker.eval_matrix": ("steinwhit.whittaker", "eval_matrix"),
    "whittaker.eval_cell": ("steinwhit.whittaker", "eval_cell"),
    "whittaker.verify_functional_equations": ("steinwhit.whittaker", "verify_functional_equations"),
    "whittaker.parahoric_check": ("steinwhit.whittaker", "parahoric_check"),
    "principal_series.generator_cosets": ("steinwhit.principal_series", "generator_cosets"),
    "principal_series.apply_generator": ("steinwhit.principal_series", "apply_generator"),
    "principal_series.induced_eval": ("steinwhit.principal_series", "InducedFunction.eval"),
    "values.add": ("steinwhit.values", "PhaseSum.__add__"),
    "values.eq": ("steinwhit.values", "PhaseSum.__eq__"),
    "values.is_zero": ("steinwhit.values", "PhaseSum.is_zero"),
    "values.times_monomial": ("steinwhit.values", "PhaseSum.times_monomial"),
    "affine_weyl.length_ext": ("steinwhit.affine_weyl", "length_ext"),
    "affine_weyl.reduced_word": ("steinwhit.affine_weyl", "reduced_word"),
    "affine_weyl.realize": ("steinwhit.affine_weyl", "realize"),
    "hecke.mult_generator": ("steinwhit.hecke", "mult_generator"),
    "hecke.multiply": ("steinwhit.hecke", "multiply"),
    "hecke.steinberg_character": ("steinwhit.hecke", "steinberg_character"),
    "hecke.verify_presentation": ("steinwhit.hecke", "verify_presentation"),
    "cli.main": ("steinwhit.cli", "main"),
}
LAYERS = ("padic", "whittaker", "values", "principal_series", "affine_weyl", "hecke", "cli")


def _replace(prefix: str, make_wrapper) -> None:
    """Put ``make_wrapper(original)`` at every binding site of a traced name."""
    module_name, attr = TRACED[prefix]
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, method = attr.split(".")
        cls = getattr(module, cls_name)
        setattr(cls, method, make_wrapper(cls.__dict__[method]))
        return
    original = getattr(module, attr)
    wrapper = make_wrapper(original)
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "steinwhit" or name.startswith("steinwhit.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)


class Tracer:
    """Per-function span sums: calls, total and self time in nanoseconds."""

    def __init__(self) -> None:
        self.calls = dict.fromkeys(TRACED, 0)
        self.total_ns = dict.fromkeys(TRACED, 0)
        self.self_ns = dict.fromkeys(TRACED, 0)
        self._open = [0]  # child time of each open span; index 0 is outside all spans

    def install(self) -> None:
        importlib.import_module("steinwhit.cli")
        for prefix in TRACED:
            _replace(prefix, functools.partial(self._wrap, prefix))

    def _wrap(self, prefix: str, fn):
        calls, total_ns, self_ns, open_spans = self.calls, self.total_ns, self.self_ns, self._open
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                children = open_spans.pop()
                open_spans[-1] += duration
                calls[prefix] += 1
                total_ns[prefix] += duration
                self_ns[prefix] += duration - children

        return traced

    def report(self) -> dict:
        return {"calls": self.calls, "total_ns": self.total_ns, "self_ns": self.self_ns}


def instrument(trace: bool, fault: str | None) -> Tracer | None:
    """Plant ``fault`` if one is named, then install a Tracer when tracing."""
    if fault:
        plant_fault(fault)
    if not trace:
        return None
    tracer = Tracer()
    tracer.install()
    return tracer


def plant_fault(kind: str) -> None:
    """Make one call return a wrong answer, for the benchmark's self-test.

    ``eval_sign`` flips the sign of the first nonzero ``eval_matrix``
    value; ``cell_label`` swaps two entries of the first label's w.
    """
    from steinwhit.weyl import Permutation
    from steinwhit.whittaker import WhittakerValue

    importlib.import_module("steinwhit.cli")
    state = {"done": False}

    def once(fn, corrupt):
        @functools.wraps(fn)
        def faulty(*args, **kwargs):
            result = fn(*args, **kwargs)
            if state["done"]:
                return result
            bad = corrupt(result)
            if bad is None:
                return result
            state["done"] = True
            return bad

        return faulty

    def flip_sign(value):
        if value.zero:
            return None
        return WhittakerValue.monomial(-value.sign, value.eps_exp, value.q_exp, value.psi)

    def swap_label(label):
        kbar, w = label
        window = w.window
        return kbar, Permutation((window[1], window[0]) + window[2:])

    corrupt = {"eval_sign": ("whittaker.eval_matrix", flip_sign), "cell_label": ("padic.cell_label", swap_label)}
    if kind not in corrupt:
        raise ValueError(f"unknown fault {kind!r}; choose from {sorted(corrupt)}")
    prefix, corrupt_fn = corrupt[kind]
    _replace(prefix, lambda fn: once(fn, corrupt_fn))
