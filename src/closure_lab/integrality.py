"""Reduction detection and explicit certificates of integral dependence.

A subideal J of I is a reduction when I^(k+1) = J * I^k for some k; that is
equivalent to every element of I satisfying a monic equation
``t^n + a_1 t^(n-1) + ... + a_n = 0`` with ``a_i`` in ``J^i``. This module
finds the least such k by exact search, decides integrality (exactly for
monomial data via the Newton polyhedron, as a semi-decision otherwise), and
extracts two kinds of explicit certificates:

* for a monomial integral over a monomial ideal, a pure-power equation read
  off the convex weights of the membership oracle;
* for the general case, the determinant-trick equation: lift multiplication
  by the element to a matrix over J acting on the generators of I^k, and
  expand det(t * Id - matrix), which vanishes at the element because the
  ambient polynomial ring is a domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .config import DEFAULT_GENERATOR_CAP, DEFAULT_K_MAX, DEFAULT_SPAIR_CAP
from .errors import (
    DimensionMismatchError,
    InstanceTooLargeError,
    InvariantViolationError,
    PreconditionError,
)
from .groebner import (
    Membership,
    PolyIdeal,
    in_poly_ideal,
    poly_ideal_member,
    poly_ideal_power,
    poly_ideal_product,
    poly_ideal_sum,
    to_poly_ideal,
)
from .monomials import (
    ExponentVector,
    MonomialIdeal,
    contains_monomial,
    divides,
    ideal_contains,
    ideal_power,
    ideal_product,
    unit_ideal,
)
from .newton import closure_member, closure_member_certificate
from .polynomials import GREVLEX, Polynomial, TermOrder, exact_quotient

Ideal = MonomialIdeal | PolyIdeal

DET_SIZE_CAP = 48


# -- results ----------------------------------------------------------------


@dataclass(frozen=True)
class ReductionWitness:
    """The least exponent k with I^(k+1) = J * I^k, checked exactly."""

    k: int
    verified: bool = True


@dataclass(frozen=True)
class NotUpTo:
    """No reduction exponent was found up to and including k_max."""

    k_max: int


@dataclass(frozen=True)
class TriState:
    """Yes / No / Unknown(k_max exhausted) verdict for integrality queries."""

    kind: str
    k_max: int | None = None

    def __post_init__(self):
        if self.kind not in ("yes", "no", "unknown"):
            raise PreconditionError(f"bad TriState kind {self.kind!r}")
        if (self.kind == "unknown") != (self.k_max is not None):
            raise PreconditionError("unknown verdicts carry k_max, others do not")

    @property
    def is_yes(self) -> bool:
        return self.kind == "yes"

    @property
    def is_unknown(self) -> bool:
        return self.kind == "unknown"

    def __str__(self) -> str:
        if self.is_unknown:
            return f"unknown (k_max={self.k_max} exhausted)"
        return self.kind


YES = TriState("yes")
NO = TriState("no")


def unknown(k_max: int) -> TriState:
    return TriState("unknown", k_max)


@dataclass(frozen=True)
class MembershipProof:
    """Quotients expressing a coefficient as a combination of listed generators.

    A zero coefficient is witnessed by the empty combination.
    """

    power: int
    generators: tuple[Polynomial, ...]
    quotients: tuple[Polynomial, ...]

    def evaluates_to(self, target: Polynomial) -> bool:
        if len(self.generators) != len(self.quotients):
            return False
        total = Polynomial.zero(target.dim)
        for quotient, generator in zip(self.quotients, self.generators):
            total += quotient * generator
        return total == target


@dataclass(frozen=True)
class IntegralityCertificate:
    """A monic equation t^n + a_1 t^(n-1) + ... + a_n = 0 satisfied by element,
    with an exact membership proof of a_i in J^i for every i."""

    element: Polynomial
    degree: int
    coefficients: tuple[Polynomial, ...]
    proofs: tuple[MembershipProof, ...]

    def equation_value(self) -> Polynomial:
        """element^n + sum(a_i * element^(n-i)); zero iff the equation holds."""
        total = self.element ** self.degree
        for i, coeff in enumerate(self.coefficients, start=1):
            if not coeff.is_zero:
                total += coeff * self.element ** (self.degree - i)
        return total

    def scale_root(self, factor) -> IntegralityCertificate:
        """The certificate for factor * element: substituting t = factor * s
        into the monic equation and clearing factor^n scales the i-th
        coefficient by factor^i, which stays inside J^i."""
        factor = Fraction(factor)
        if not factor:
            raise PreconditionError("the scaling factor must be nonzero")
        coefficients = tuple(
            coeff.scale(factor ** i)
            for i, coeff in enumerate(self.coefficients, start=1)
        )
        proofs = tuple(
            MembershipProof(
                proof.power,
                proof.generators,
                tuple(q.scale(factor ** proof.power) for q in proof.quotients),
            )
            for proof in self.proofs
        )
        return IntegralityCertificate(
            self.element.scale(factor), self.degree, coefficients, proofs
        )

    def verify(self, ideal: Ideal | None = None) -> bool:
        """Exact re-verification: the equation vanishes, every proof
        re-evaluates, and (when the base ideal is supplied) every proof
        generator really lies in the corresponding ideal power."""
        if self.degree < 1 or len(self.coefficients) != self.degree:
            return False
        if len(self.proofs) != self.degree:
            return False
        if not self.equation_value().is_zero:
            return False
        for i, (coeff, proof) in enumerate(zip(self.coefficients, self.proofs), start=1):
            if proof.power != i:
                return False
            if not proof.evaluates_to(coeff):
                return False
        if ideal is not None:
            for proof in self.proofs:
                if proof.generators and not _all_in_ideal_power(
                    proof.generators, ideal, proof.power
                ):
                    return False
        return True


def _all_in_ideal_power(gens: tuple[Polynomial, ...], ideal: Ideal, power: int) -> bool:
    """Whether every polynomial of ``gens`` lies in ideal^power, which is
    built once for all of them."""
    if isinstance(ideal, MonomialIdeal):
        power_ideal = ideal_power(ideal, power)
        if all(g.is_monomial() for g in gens):
            return all(contains_monomial(power_ideal, next(iter(g.terms))) for g in gens)
        poly_power = to_poly_ideal(power_ideal)
    else:
        poly_power = poly_ideal_power(ideal, power)
    return all(in_poly_ideal(g, poly_power) for g in gens)


# -- reduction detection ------------------------------------------------------


def reduction_number(
    j_ideal: Ideal,
    i_ideal: Ideal,
    k_max: int = DEFAULT_K_MAX,
    order: TermOrder = GREVLEX,
    generator_cap: int = DEFAULT_GENERATOR_CAP,
    spair_cap: int = DEFAULT_SPAIR_CAP,
) -> ReductionWitness | NotUpTo:
    """Least k <= k_max with I^(k+1) = J * I^k, each equality checked exactly.

    Requires J to be a subideal of I; a generator of J that is literally a
    generator of I needs no membership test. Monomial inputs use canonical
    minimal-generator equality. For anything else, J in I gives
    J * I^k in I^(k+1), and writing I = J + E with E the generators of I not
    among J's gives I^(k+1) = J * I^k + E^(k+1); so the equality is the
    containment of E^(k+1) in J * I^k, tested generator by generator by
    ``in_poly_ideal``, which forms no cofactor rows.
    """
    if k_max < 1:
        raise PreconditionError(f"k_max must be positive, got {k_max}")
    if j_ideal.dim != i_ideal.dim:
        raise DimensionMismatchError("ideals live in different rings")
    if isinstance(j_ideal, MonomialIdeal) and isinstance(i_ideal, MonomialIdeal):
        if not ideal_contains(i_ideal, j_ideal):
            raise PreconditionError("J must be contained in I")
        current = unit_ideal(i_ideal.dim)  # I^0
        for k in range(k_max + 1):
            next_power = ideal_product(i_ideal, current, generator_cap)
            if next_power == ideal_product(j_ideal, current, generator_cap):
                return ReductionWitness(k)
            current = next_power
        return NotUpTo(k_max)

    j_poly = to_poly_ideal(j_ideal)
    i_poly = to_poly_ideal(i_ideal)
    for g in j_poly.gens:
        # A generator of J that is one of I's needs no Groebner basis of I;
        # is_integral_ideal always asks about I = J + (...).
        if g in i_poly.gens:
            continue
        if not in_poly_ideal(g, i_poly, order, spair_cap):
            raise PreconditionError("J must be contained in I")
    extra = PolyIdeal(i_poly.dim, tuple(g for g in i_poly.gens if g not in j_poly.gens))
    current = extra_power = poly_ideal_power(i_poly, 0)  # I^0 = E^0 = (1)
    for k in range(k_max + 1):
        if k:
            current = poly_ideal_product(i_poly, current, generator_cap)  # I^k
        product = poly_ideal_product(j_poly, current, generator_cap)
        extra_power = poly_ideal_product(extra, extra_power, generator_cap)
        if all(in_poly_ideal(e, product, order, spair_cap) for e in extra_power.gens):
            return ReductionWitness(k)
    return NotUpTo(k_max)


def is_integral_ideal(
    j_ideal: Ideal,
    i_ideal: Ideal,
    k_max: int = DEFAULT_K_MAX,
    order: TermOrder = GREVLEX,
    generator_cap: int = DEFAULT_GENERATOR_CAP,
    spair_cap: int = DEFAULT_SPAIR_CAP,
) -> TriState:
    """Is I contained in the integral closure of J?

    Monomial pairs are decided exactly by the Newton polyhedron's facets. General
    pairs are semi-decided: a reduction witness for (J, J + I) answers yes,
    and cap exhaustion answers unknown. The general path answers no only for
    a zero J and a nonzero I, since the closure of (0) in a domain is (0).
    """
    if j_ideal.dim != i_ideal.dim:
        raise DimensionMismatchError("ideals live in different rings")
    if isinstance(j_ideal, MonomialIdeal) and isinstance(i_ideal, MonomialIdeal):
        if j_ideal.is_zero:
            return YES if i_ideal.is_zero else NO
        return YES if all(closure_member(j_ideal, g) for g in i_ideal.gens) else NO
    j_poly = to_poly_ideal(j_ideal)
    i_poly = to_poly_ideal(i_ideal)
    if j_poly.is_zero:
        return YES if i_poly.is_zero else NO
    # A unit J answers yes at k = 0 of the search: every generator of I lies
    # in J * I^0 = J.
    union = poly_ideal_sum(j_poly, i_poly)
    outcome = reduction_number(j_poly, union, k_max, order, generator_cap, spair_cap)
    if isinstance(outcome, ReductionWitness):
        return YES
    return unknown(k_max)


def is_integral_element(
    f: Polynomial,
    j_ideal: Ideal,
    k_max: int = DEFAULT_K_MAX,
    order: TermOrder = GREVLEX,
    generator_cap: int = DEFAULT_GENERATOR_CAP,
    spair_cap: int = DEFAULT_SPAIR_CAP,
) -> TriState:
    """Does f satisfy a monic equation with i-th coefficient in J^i?

    The verdict of :func:`is_integral_ideal` for the principal ideal (f): a
    monomial f over a monomial J is decided exactly; otherwise the answer is
    yes when J is a reduction of J + (f) within k_max, no when J is zero,
    else unknown.
    """
    if f.is_zero:
        raise PreconditionError("the element must be nonzero")
    if f.dim != j_ideal.dim:
        raise DimensionMismatchError("element dimension differs from ideal")
    if isinstance(j_ideal, MonomialIdeal) and f.is_monomial():
        principal = MonomialIdeal(f.dim, (next(iter(f.terms)),))
    else:
        principal = PolyIdeal(f.dim, (f,))
    return is_integral_ideal(j_ideal, principal, k_max, order, generator_cap, spair_cap)


# -- certificates -------------------------------------------------------------


def monomial_certificate(
    m: ExponentVector,
    j_ideal: MonomialIdeal,
    generator_cap: int = DEFAULT_GENERATOR_CAP,
) -> IntegralityCertificate:
    """A pure-power equation for a monomial integral over a monomial ideal.

    With convex weights lambda on the generators and n the least common
    denominator, n*m dominates an n-fold sum of generator exponents, so
    x^(n*m) is a generator multiple inside J^n and t^n - x^(n*m) is the
    certificate. When some generator divides m directly the degree is 1.
    """
    dim = j_ideal.dim
    member, weights = closure_member_certificate(j_ideal, m)
    if not member:
        raise PreconditionError(f"{m} is not integral over the ideal")
    m = tuple(int(c) for c in m)
    element = Polynomial.monomial(dim, m)

    if contains_monomial(j_ideal, m):
        generator = next(g for g in j_ideal.gens if divides(g, m))
        quotients = [Polynomial.zero(dim) for _ in j_ideal.gens]
        shift = tuple(a - b for a, b in zip(m, generator))
        quotients[j_ideal.gens.index(generator)] = Polynomial.monomial(dim, shift, -1)
        proof = MembershipProof(
            1,
            tuple(Polynomial.monomial(dim, g) for g in j_ideal.gens),
            tuple(quotients),
        )
        return IntegralityCertificate(element, 1, (-element,), (proof,))

    assert weights is not None
    degree = lcm(*(lam.denominator for lam in weights.lambdas))
    if degree < 2:
        raise InvariantViolationError("fractional weights expected outside the ideal")
    target = tuple(c * degree for c in m)
    power = ideal_power(j_ideal, degree, generator_cap)
    generator = next((g for g in power.gens if divides(g, target)), None)
    if generator is None:
        raise InvariantViolationError("scaled monomial escaped the ideal power")
    quotients = [Polynomial.zero(dim) for _ in power.gens]
    shift = tuple(a - b for a, b in zip(target, generator))
    quotients[power.gens.index(generator)] = Polynomial.monomial(dim, shift, -1)
    final_proof = MembershipProof(
        degree,
        tuple(Polynomial.monomial(dim, g) for g in power.gens),
        tuple(quotients),
    )
    coefficients = tuple(
        Polynomial.zero(dim) for _ in range(degree - 1)
    ) + (Polynomial.monomial(dim, target, -1),)
    proofs = tuple(
        MembershipProof(i, (), ()) for i in range(1, degree)
    ) + (final_proof,)
    return IntegralityCertificate(element, degree, coefficients, proofs)


def bareiss_determinant(matrix: list[list[Polynomial]]) -> Polynomial:
    """Fraction-free determinant over the polynomial ring.

    One-step Bareiss elimination with row-swap pivoting; every division is
    exact by the Sylvester identity, and exactness is enforced.
    """
    n = len(matrix)
    if n == 0:
        raise PreconditionError("empty matrix")
    dim = matrix[0][0].dim
    work = [row[:] for row in matrix]
    sign = 1
    previous = Polynomial.one(dim)
    for col in range(n - 1):
        if work[col][col].is_zero:
            swap = next(
                (r for r in range(col + 1, n) if not work[r][col].is_zero), None
            )
            if swap is None:
                return Polynomial.zero(dim)
            work[col], work[swap] = work[swap], work[col]
            sign = -sign
        pivot = work[col][col]
        for i in range(col + 1, n):
            for j in range(col + 1, n):
                numerator = work[i][j] * pivot - work[i][col] * work[col][j]
                work[i][j] = exact_quotient(numerator, previous)
            work[i][col] = Polynomial.zero(dim)
        previous = pivot
    result = work[n - 1][n - 1]
    return result if sign == 1 else -result


def cramer_certificate(
    f: Polynomial,
    j_ideal: Ideal,
    i_ideal: Ideal,
    k: int,
    order: TermOrder = GREVLEX,
    generator_cap: int = DEFAULT_GENERATOR_CAP,
    spair_cap: int = DEFAULT_SPAIR_CAP,
) -> IntegralityCertificate:
    """The determinant-trick certificate for f in I, given f * I^k in J * I^k.

    That hypothesis holds whenever I^(k+1) = J * I^k, and the lift of each
    f * g_i, for the generators g_i of I^k, into J * I^k checks it. Division
    quotients regrouped per (J-generator, I^k-generator) pair give an exact
    matrix H over J with f * g_i = sum(H[i][j] * g_j). The characteristic
    polynomial det(t * Id - H) is monic of degree N = #generators, has i-th
    coefficient in J^i, and vanishes at t = f because the ambient ring is a
    domain; all three facts are re-checked exactly before returning.
    """
    j_poly = to_poly_ideal(j_ideal)
    i_poly = to_poly_ideal(i_ideal)
    if f.dim != j_poly.dim or j_poly.dim != i_poly.dim:
        raise DimensionMismatchError("element and ideals must share one ring")
    if f.is_zero:
        raise PreconditionError("the element must be nonzero")
    # A generator of I needs no basis of I; certifying f over J asks about
    # I = J + (f).
    if f not in i_poly.gens and not in_poly_ideal(f, i_poly, order, spair_cap):
        raise PreconditionError("the element must belong to I")
    dim = f.dim

    basis_ideal = poly_ideal_power(i_poly, k, generator_cap)
    count = len(basis_ideal.gens)
    if count > DET_SIZE_CAP:
        raise InstanceTooLargeError(
            f"certificate needs a {count}x{count} determinant, cap is {DET_SIZE_CAP} "
            "(fixed: no flag or config field sets it)"
        )
    pair_gens = [q * g for q in j_poly.gens for g in basis_ideal.gens]
    lift_ideal = PolyIdeal(dim, tuple(pair_gens))

    matrix_h: list[list[Polynomial]] = []
    for g_i in basis_ideal.gens:
        lift = poly_ideal_member(f * g_i, lift_ideal, order, spair_cap)
        if not lift.member:
            raise PreconditionError(f"f * I^{k} is not in J * I^{k}")
        assert lift.generator_quotients is not None
        row = []
        for j in range(count):
            entry = Polynomial.zero(dim)
            for q_index, q in enumerate(j_poly.gens):
                coefficient = lift.generator_quotients[q_index * count + j]
                if not coefficient.is_zero:
                    entry += coefficient * q
            row.append(entry)
        check = Polynomial.zero(dim)
        for entry, g_j in zip(row, basis_ideal.gens):
            check += entry * g_j
        if check != f * g_i:
            raise InvariantViolationError("regrouped lift does not reproduce f * g_i")
        matrix_h.append(row)

    # Characteristic matrix over the ring extended by t as a last coordinate.
    def lift_poly(p: Polynomial, t_power: int = 0) -> Polynomial:
        return Polynomial._trusted(
            dim + 1, {e + (t_power,): c for e, c in p.terms.items()}
        )

    t_poly = Polynomial.monomial(dim + 1, (0,) * dim + (1,))
    char_matrix = [
        [
            (t_poly if i == j else Polynomial.zero(dim + 1)) - lift_poly(matrix_h[i][j])
            for j in range(count)
        ]
        for i in range(count)
    ]
    det = bareiss_determinant(char_matrix)

    by_t_degree: dict[int, dict[ExponentVector, Fraction]] = {}
    for exps, coeff in det.terms.items():
        by_t_degree.setdefault(exps[-1], {})[exps[:-1]] = coeff
    if by_t_degree.get(count) != {(0,) * dim: Fraction(1)}:
        raise InvariantViolationError("characteristic polynomial is not monic")
    coefficients = tuple(
        Polynomial._trusted(dim, by_t_degree.get(count - i, {})) for i in range(1, count + 1)
    )

    equation = f ** count
    for i, coeff in enumerate(coefficients, start=1):
        if not coeff.is_zero:
            equation += coeff * f ** (count - i)
    if not equation.is_zero:
        raise InvariantViolationError("characteristic polynomial does not vanish at f")

    proofs = []
    for i, coeff in enumerate(coefficients, start=1):
        if coeff.is_zero:
            proofs.append(MembershipProof(i, (), ()))
            continue
        power_ideal = poly_ideal_power(j_poly, i, generator_cap)
        membership: Membership = poly_ideal_member(coeff, power_ideal, order, spair_cap)
        if not membership.member:
            raise InvariantViolationError(f"coefficient {i} escaped J^{i}")
        assert membership.generator_quotients is not None
        proofs.append(MembershipProof(i, power_ideal.gens, membership.generator_quotients))
    return IntegralityCertificate(f, count, coefficients, tuple(proofs))
