"""Exact Iwahori-fixed Whittaker values for Steinberg representations of GL(n, Q_p).

The names of ``__all__`` load on first use (PEP 562): ``import steinwhit``
imports no submodule, and ``steinwhit.eval_matrix`` imports only the
modules that ``whittaker`` needs.
"""

# public name -> the submodule that defines it
_HOMES = {
    "Cell": "padic",
    "CheckResult": "reporting",
    "ExtAffineElement": "affine_weyl",
    "HeckeElement": "hecke",
    "HeckeScalar": "hecke",
    "InducedFunction": "principal_series",
    "MatrixFormatError": "padic",
    "PAdicMatrix": "padic",
    "Permutation": "weyl",
    "PhaseSum": "values",
    "SingularMatrixError": "padic",
    "WhittakerValue": "whittaker",
    "all_permutations": "weyl",
    "apply_generator": "principal_series",
    "dominance_shift": "weyl",
    "eval_cell": "whittaker",
    "eval_matrix": "whittaker",
    "is_dominant": "weyl",
    "iwahori_cell": "iwahori",
    "iwasawa": "iwahori",
    "length_ext": "affine_weyl",
    "matrix_from_json": "padic",
    "matrix_to_json": "padic",
    "realize": "affine_weyl",
    "reduced_word": "affine_weyl",
    "run_eigen_checks": "principal_series",
    "serialize": "whittaker",
    "steinberg_character": "hecke",
    "verify_functional_equations": "whittaker",
    "verify_presentation": "hecke",
}

__all__ = list(_HOMES)

__version__ = "0.1.0"


def __getattr__(name: str):
    """Import the home of a public name on first access and keep the name
    here; any other name raises AttributeError, so that ``from steinwhit
    import padic`` still imports the submodule."""
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
