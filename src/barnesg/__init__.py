"""Barnes double gamma function G(z;tau) and companions.

Evaluation engine (the Gamma-product summed over every term, or, with
explicit ComputeParams, truncated at N with a Bernoulli-polynomial
correction series), gamma modular forms C(tau) and D(tau) by independent
routes, exact q_n / P_n polynomial families, large-z asymptotics, and an
identity-based self-verification suite.

Quick start::

    from barnesg import double_gamma_value, log_double_gamma
    g = double_gamma_value(1.5 + 0.5j, 2.0)
    r = log_double_gamma(1.5 + 0.5j, 2.0)   # canonical log + error estimate

The numerical hot loops (the product sum and the modular-form partial sums)
live in barnesg.backend, in plain Python.
"""

from .backend import backend_name
from .engine import (
    AsymptoticCoeffs,
    ComputeParams,
    EvalResult,
    asymptotic_coeffs,
    b0_of_tau,
    choose_params,
    double_gamma_value,
    gamma2,
    lattice_distance,
    log_G_via_integral,
    log_double_gamma,
    log_double_gamma_asymptotic,
)
from .errors import (
    ArgumentConditionError,
    CapacityError,
    ConsistencyError,
    ConvergenceError,
    DomainError,
    LatticeZeroError,
    PoleError,
    PreconditionError,
    SectorError,
)
from .identities import IdentityReport, run_suite
from .kernels import (
    EllipticKE,
    QuadratureSpec,
    elliptic_ke,
    integrate_semiaxis,
    log_gamma,
    polygamma,
    q_pochhammer,
)
from .modular import (
    C_via_integral,
    C_via_logG_derivative,
    D_via_integral,
    D_via_logG_derivative,
    ModularForms,
    d_reflection_residual,
    modular_forms_em,
)
from .polys import (
    bernoulli_number,
    bernoulli_polynomial,
    p_poly,
    p_poly_alt,
    p_poly_recursive,
    q_poly,
    q_poly_recursive,
)

__version__ = "0.1.0"

__all__ = [
    "ArgumentConditionError", "AsymptoticCoeffs",
    "C_via_integral", "C_via_logG_derivative", "CapacityError",
    "ComputeParams", "ConsistencyError", "ConvergenceError",
    "D_via_integral", "D_via_logG_derivative", "DomainError", "EllipticKE",
    "EvalResult", "IdentityReport", "LatticeZeroError", "ModularForms",
    "PoleError", "PreconditionError", "QuadratureSpec",
    "SectorError", "asymptotic_coeffs",
    "b0_of_tau", "backend_name", "bernoulli_number",
    "bernoulli_polynomial", "choose_params", "d_reflection_residual",
    "double_gamma_value", "elliptic_ke",
    "gamma2", "integrate_semiaxis", "lattice_distance",
    "log_G_via_integral", "log_double_gamma", "log_double_gamma_asymptotic",
    "log_gamma", "modular_forms_em", "p_poly",
    "p_poly_alt", "p_poly_recursive", "polygamma", "q_pochhammer", "q_poly",
    "q_poly_recursive", "run_suite",
]
