"""Generalized sign-change estimators and their comparison machinery.

The package imports no submodule itself: each public name is resolved from
its home module on access (PEP 562), so `import psiest` stays cheap and a
program pays only for the modules it uses.
"""

import importlib

# home module -> the public names it defines
_HOMES = {
    "errors": (
        "DataParseError", "DegenerateDerivative", "DegenerateProbes",
        "DomainError", "EmptyData", "EmptyLowerSet", "ExprError",
        "ExprSyntaxError", "InvalidArgument", "InvalidParameter",
        "MissingClosedForm", "NegativeWeight", "OutOfRange", "PsiEstError",
        "SignViolation", "SolverError", "UnknownIdentifier",
    ),
    "kernel": (
        "OpenInterval", "PsiKernel", "WeightedSample", "validate_monotone",
        "weighted_sum",
    ),
    "solver": (
        "SignChangeResult", "SolverConfig", "empirical_theta1_hull",
        "generalized_left_inverse", "solve_sign_change", "theta1",
    ),
    "families": (
        "CLOSED_FORM_IDS", "FAMILY_IDS", "FamilySpec", "beta_alpha_bounds",
        "closed_form_estimate", "digamma", "make_kernel",
    ),
    "bajraktarevic": (
        "BajraktarevicSpec", "MobiusCoefficients", "apply_mobius", "as_kernel",
        "determinant_scale", "determinant_test", "estimate", "mobius_fit",
        "schwarzian", "theta_psi_empty",
    ),
    "comparison": (
        "ComparisonVerdict", "WitnessSet", "build_witness_set",
        "check_derivative_condition", "check_direct", "check_equality",
        "check_ratio_condition", "check_two_point", "construct_multiplier",
    ),
    "exprparse": (
        "compile_expr", "eval_expr", "parse", "pretty",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}


def __getattr__(name):
    # Resolved through the module on every access and never bound here, so a
    # module attribute replaced later (a tracer's wrapper, say) is what a
    # caller gets, and the original again once it is put back.
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *_HOME})


__version__ = "0.1.0"

__all__ = [
    "BajraktarevicSpec",
    "CLOSED_FORM_IDS",
    "ComparisonVerdict",
    "DataParseError",
    "DegenerateDerivative",
    "DegenerateProbes",
    "DomainError",
    "EmptyData",
    "EmptyLowerSet",
    "ExprError",
    "ExprSyntaxError",
    "FAMILY_IDS",
    "FamilySpec",
    "InvalidArgument",
    "InvalidParameter",
    "MissingClosedForm",
    "MobiusCoefficients",
    "NegativeWeight",
    "OpenInterval",
    "OutOfRange",
    "PsiEstError",
    "PsiKernel",
    "SignChangeResult",
    "SignViolation",
    "SolverConfig",
    "SolverError",
    "UnknownIdentifier",
    "WeightedSample",
    "WitnessSet",
    "apply_mobius",
    "as_kernel",
    "beta_alpha_bounds",
    "build_witness_set",
    "check_derivative_condition",
    "check_direct",
    "check_equality",
    "check_ratio_condition",
    "check_two_point",
    "closed_form_estimate",
    "compile_expr",
    "construct_multiplier",
    "determinant_scale",
    "determinant_test",
    "digamma",
    "empirical_theta1_hull",
    "estimate",
    "eval_expr",
    "generalized_left_inverse",
    "make_kernel",
    "mobius_fit",
    "parse",
    "pretty",
    "schwarzian",
    "solve_sign_change",
    "theta1",
    "theta_psi_empty",
    "validate_monotone",
    "weighted_sum",
]
