"""Exact normal ordering of boson operator words, the generalized
Stirling/Bell combinatorics it produces, and brute-force oracles for both.

The public names are loaded on first use (PEP 562): ``import bosonorder``
runs no module of the package, and reading a name imports its home module
and binds the name here, so every later read is a plain attribute."""

# each public name, listed once, under the module that defines it
_EXPORTS = {
    "algebra": (
        "ANNIHILATION", "CREATION", "BosonWord", "Letter", "NormalForm",
        "StringType", "extract_stirling", "normal_order", "type_from_word",
        "word_from_type"),
    "combinat": (
        "DEFAULT_ENUM_CAP", "Colony", "IncreasingForest",
        "colony_to_dot", "colony_to_forest", "colony_to_text",
        "count_colonies_by_free_legs", "count_increasing_forests",
        "enumerate_colonies", "enumerate_settlements", "forest_to_colony",
        "free_legs"),
    "errors": (
        "BosonOrderError", "LengthMismatch", "NegativeExcess",
        "NonCanonicalPrefix", "ParseError", "PrecisionUnreachable",
        "TooLarge"),
    "series": (
        "EGF", "PowerSeries", "bell_r1_numeric", "forest_egf",
        "series_exp", "tree_series", "tree_series_closed_form"),
    "stirling": (
        "DEFAULT_MAX_TERMS", "ApproxValue", "BellPolynomial",
        "ComplexApproxValue", "StirlingTable", "bell_number",
        "bell_polynomial", "closed_form_table", "coherent_expectation",
        "dobinski_eval", "falling_factorial", "settlement_product",
        "stirling_closed_form", "stirling_recurrence"),
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
