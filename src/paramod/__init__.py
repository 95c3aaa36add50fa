"""paramod: exact moduli computations for rank-2 parabolic structures on the
five-punctured projective line.

The names below are re-exported from the modules that define them, and each
resolves on first access through the module ``__getattr__`` (PEP 562): a
``paramod`` command imports only the modules it runs, not all seven, which
would cost a short-lived process more than many of its computations.
``from paramod import X`` works for every name in ``__all__``.
"""

from importlib import import_module

__version__ = "0.1.0"

# the arithmetic kernel is pure Python; the name stays for run records
KERNEL_BACKEND = "py"

_EXPORTS = {
    "connection": (
        "FlatTriple",
        "LogConnection",
        "degree_bounds",
        "elm_triple",
        "gauge_transform",
        "solve_connection_space",
        "validate_triple",
    ),
    "exactnum": ("INF", "Mat", "Poly", "ProjectivePoint", "Scalar", "interpolate", "sc"),
    "higgslimit": (
        "FixedLocusPoint",
        "StronglyParabolicHiggs",
        "cstar_limit",
        "fiber_dimension",
        "fixed_component",
        "fixedpoint_canonicalize",
        "higgs_is_stable",
        "special_loci",
        "theta_from_connection",
    ),
    "parastruct": (
        "B",
        "BPRIME",
        "BundleSplitType",
        "MarkedConfiguration",
        "ParabolicStructure",
        "StratumId",
        "act",
        "classify",
        "is_decomposable",
        "is_simple",
        "orbit_equal",
        "quotient_coords",
    ),
    "spectra": (
        "MCBranch",
        "SpectrumRank2",
        "character_poly",
        "elm_spectrum",
        "elm_weight",
        "mc_spectrum",
    ),
    "stability": (
        "WeightVector",
        "chamber_classify",
        "is_stable",
        "no_stable_structure",
        "s_value",
        "stabilizing_weight",
        "weight_is_kostov_generic",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_MODULE_OF, "KERNEL_BACKEND", "__version__"])


def __getattr__(name):
    # a submodule, imported here, becomes a package attribute as before; an
    # exported name is not stored, so it always reads the defining module's
    # current binding
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name in _MODULE_OF:
        return getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
