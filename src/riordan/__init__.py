"""Exact computation with Riordan arrays and their production matrices.

Every name in ``__all__`` is loaded from its submodule on first use, so
``import riordan`` (and the CLI) pays only for the modules it reads.
"""

from importlib import import_module

__version__ = "0.1.0"

# each submodule -> the public names it defines
_SOURCES = {
    "arrays": "RiordanElement TriMatrix",
    "errors": "CoefficientSizeError CompositionError ExpressionError ExpressionEvalError "
    "ExpressionSyntaxError InvalidElementError NonUnitError OeisFormatError OeisQueryError "
    "PrecisionError ReversionError RiordanError ShapeError SingularMatrixError SqrtError "
    "UnknownFamilyError",
    "families": "FAMILY_NAMES a085478_element a085478_second_entry "
    "a092276_entry binomial_power catalan_array family_element iterate_second_production "
    "moment_element moment_entry pascal",
    "gfexpr": "evaluate evaluate_text parse",
    "oeis": "MIN_QUERY_VALUES OeisIndex SequenceMatch load_stripped",
    "production": "ProductionMatrix VerificationReport generate_from_production nth_az "
    "nth_production_matrix produced_matrix_closed_form production_block production_matrix "
    "verify_nth_conjecture",
    "series": "TruncatedSeries catalan_gf",
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    # any other name raises, so "from riordan import arrays" imports the submodule
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
