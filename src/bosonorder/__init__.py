"""Exact normal ordering of boson operator words, the generalized
Stirling/Bell combinatorics it produces, and brute-force oracles for both."""

from .algebra import (ANNIHILATION, CREATION, BosonWord, Letter, NormalForm,
                      StringType, extract_stirling, normal_order,
                      type_from_word, word_from_type)
from .combinat import (DEFAULT_ENUM_CAP, Colony, IncreasingForest,
                       colony_to_dot, colony_to_forest, colony_to_text,
                       count_colonies_by_free_legs, count_increasing_forests,
                       enumerate_colonies, enumerate_settlements,
                       forest_to_colony, free_legs)
from .errors import (BosonOrderError, LengthMismatch, NegativeExcess,
                     NonCanonicalPrefix, ParseError, PrecisionUnreachable,
                     TooLarge)
from .series import (EGF, PowerSeries, bell_r1_numeric, forest_egf,
                     series_exp, tree_series, tree_series_closed_form)
from .stirling import (DEFAULT_MAX_TERMS, ApproxValue, BellPolynomial,
                       ComplexApproxValue, StirlingTable, bell_number,
                       bell_polynomial, closed_form_table,
                       coherent_expectation, dobinski_eval, falling_factorial,
                       settlement_product, stirling_closed_form,
                       stirling_recurrence)

__all__ = [
    "ANNIHILATION", "CREATION", "BosonWord", "Letter", "NormalForm",
    "StringType", "extract_stirling", "normal_order", "type_from_word",
    "word_from_type",
    "DEFAULT_ENUM_CAP", "Colony", "IncreasingForest",
    "colony_to_dot", "colony_to_forest", "colony_to_text",
    "count_colonies_by_free_legs", "count_increasing_forests",
    "enumerate_colonies", "enumerate_settlements", "forest_to_colony",
    "free_legs",
    "BosonOrderError", "LengthMismatch", "NegativeExcess",
    "NonCanonicalPrefix", "ParseError", "PrecisionUnreachable", "TooLarge",
    "EGF", "PowerSeries", "bell_r1_numeric", "forest_egf",
    "series_exp", "tree_series", "tree_series_closed_form",
    "DEFAULT_MAX_TERMS", "ApproxValue", "BellPolynomial", "ComplexApproxValue",
    "StirlingTable", "bell_number", "bell_polynomial", "closed_form_table",
    "coherent_expectation", "dobinski_eval", "falling_factorial",
    "settlement_product", "stirling_closed_form", "stirling_recurrence",
]
