"""Integral closures, reductions, and integral-dependence certificates for
ideals in polynomial rings over the rationals, plus an experiment harness
for per-ideal uniform exponents."""

from .config import Config, load_config
from .errors import (
    ClosureLabError,
    ConfigError,
    DimensionMismatchError,
    IdealSyntaxError,
    InstanceTooLargeError,
    InvariantViolationError,
    PreconditionError,
)
from .groebner import (
    GroebnerBasis,
    PolyIdeal,
    buchberger,
    in_poly_ideal,
    poly_ideal_member,
    poly_ideal_power,
    poly_ideal_product,
    poly_ideal_sum,
    to_poly_ideal,
    unit_poly_ideal,
)
from .integrality import (
    IntegralityCertificate,
    MembershipProof,
    NotUpTo,
    ReductionWitness,
    TriState,
    certify_element,
    cramer_certificate,
    is_integral_element,
    is_integral_ideal,
    monomial_certificate,
    reduction_number,
)
from .lab import (
    ShiftedContainmentReport,
    SuiteReport,
    UniformExponentReport,
    WitnessPair,
    WitnessVerdict,
    chain_check,
    lipman_sathaye_check,
    nilpotent_lift_bound,
    random_monomial_ideal,
    sample_suite,
    uniform_exponents,
    verify_witness,
    witness_pair,
)
from .monomials import (
    ExponentVector,
    MonomialIdeal,
    contains_monomial,
    ideal_contains,
    ideal_power,
    ideal_product,
    ideal_sum,
    minimalize,
    unit_ideal,
    zero_ideal,
)
from .newton import (
    NewtonPolyhedron,
    RationalCertificate,
    closure,
    closure_member,
    polyhedron_of,
)
from .parsing import parse_polynomial
from .polynomials import GREVLEX, LEX, Polynomial, TermOrder, normal_form, term_order
from .serialize import ParsedIdeal, canonical_json, load_ideal, parse_ideal

__version__ = "0.1.0"
