"""ratdyn: exact and floating-point analysis of the rational difference
equations x(n+1) = q/(p + x(n)**nu) and y(n+1) = q/(-p + y(n)**nu).

The package keeps two numeric planes everywhere: exact rationals
(fractions.Fraction) wherever a statement is an identity, and IEEE floats
for limits and roots that are irrational in general.
"""

from importlib import import_module

# Each public name, by the module that defines it.  A module is imported on
# the first access to one of its names, so importing the package, as
# `import ratdyn.cli` does, loads no layer.
_EXPORTS = {
    "analysis": ("Bracket", "EquilibriumReport", "PeriodTwoCycle", "Stability",
                 "classify_stability", "equilibria", "linear_stability_criterion",
                 "smallest_even_cycle_exponent", "solve_period_two"),
    "closed_form": ("ForbiddenPoint", "ProductAnalysis", "Regime", "RootChoice",
                    "asymptotic_limit", "conjugate_orbit_check", "docagne_product",
                    "excluded_points", "fixed_solution", "forbidden_depth", "forbidden_points",
                    "johnson_product", "near_excluded_point", "product_analysis",
                    "product_closed_form", "reconstruct_horadam", "solve_closed_form"),
    "dynamics": ("BoundsEnvelope", "Orbit", "OscillationProfile", "PeriodDetection", "Plane",
                 "Side", "StatusKind", "bounds_envelope", "detect_period", "iterate",
                 "oscillation_profile", "reflected_bounds", "step"),
    "equation": ("Branch", "EquationSpec"),
    "horadam": ("HoradamSpec", "IdentityKind", "QuadraticElement", "QuadraticRoots",
                "binet_roots", "check_identity", "horadam_at", "horadam_range", "phi_power",
                "ratio_estimate"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = [
    "Branch",
    "Bracket",
    "BoundsEnvelope",
    "EquationSpec",
    "EquilibriumReport",
    "ForbiddenPoint",
    "HoradamSpec",
    "IdentityKind",
    "Orbit",
    "OscillationProfile",
    "PeriodDetection",
    "PeriodTwoCycle",
    "Plane",
    "ProductAnalysis",
    "QuadraticElement",
    "QuadraticRoots",
    "Regime",
    "RootChoice",
    "Side",
    "Stability",
    "StatusKind",
    "asymptotic_limit",
    "binet_roots",
    "bounds_envelope",
    "check_identity",
    "classify_stability",
    "conjugate_orbit_check",
    "detect_period",
    "docagne_product",
    "equilibria",
    "excluded_points",
    "fixed_solution",
    "forbidden_depth",
    "forbidden_points",
    "horadam_at",
    "horadam_range",
    "iterate",
    "johnson_product",
    "linear_stability_criterion",
    "near_excluded_point",
    "oscillation_profile",
    "phi_power",
    "product_analysis",
    "product_closed_form",
    "ratio_estimate",
    "reconstruct_horadam",
    "reflected_bounds",
    "smallest_even_cycle_exponent",
    "solve_closed_form",
    "solve_period_two",
    "step",
]


def __getattr__(name):
    """Resolve a public name from its module on first access (PEP 562)."""
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
