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

:func:`certify_element` is the one entry point that picks between them: it
answers an element query and certifies a yes at the k its own search found.
:func:`certify_ideal` answers an ideal query and certifies each generator.

A certificate keeps, for each a_i, only multisets of i indices into J's
generators and one multiplier per multiset. Its degree, its coefficients
and the products it cites are computed from those, so a certificate is
re-checked by multiplying them out over J's generators; neither building
nor checking one forms a power of J or a Groebner basis of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod

from .config import DEFAULT_GENERATOR_CAP, DEFAULT_K_MAX, DEFAULT_SPAIR_CAP
from .errors import (
    DimensionMismatchError,
    InstanceTooLargeError,
    InvariantViolationError,
    PreconditionError,
)
from .groebner import (
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
    ideal_contains,
    ideal_product,
)
from .newton import closure_member, polyhedron_of
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
    """A coefficient a_i written as a combination of products of J's generators.

    ``factors[g]`` is a multiset of i indices into J's generators, so its
    product lies in J^i by construction; ``quotients[g]`` is its multiplier.
    A zero coefficient is witnessed by the empty combination.
    """

    factors: tuple[tuple[int, ...], ...]
    quotients: tuple[Polynomial, ...]

    def products(self, base: PolyIdeal) -> tuple[Polynomial, ...]:
        """The cited products, one per multiset, of ``base``'s generators."""
        one = Polynomial.one(base.dim)
        return tuple(
            prod(map(base.gens.__getitem__, factor), start=one) for factor in self.factors
        )

    def value(self, base: PolyIdeal) -> Polynomial:
        """sum(quotient * cited product) over ``base``'s generators."""
        total = Polynomial.zero(base.dim)
        for quotient, product in zip(self.quotients, self.products(base)):
            total += quotient * product
        return total


@dataclass(frozen=True)
class IntegralityCertificate:
    """A monic equation t^n + a_1 t^(n-1) + ... + a_n = 0 satisfied by element:
    ``proofs[i-1]`` writes a_i over the generators of J, so n is the number
    of proofs and every coefficient is multiplied out from its proof."""

    element: Polynomial
    proofs: tuple[MembershipProof, ...]

    @property
    def degree(self) -> int:
        return len(self.proofs)

    def coefficients(self, ideal: Ideal) -> tuple[Polynomial, ...]:
        """a_1, ..., a_n, each multiplied out over the generators of J."""
        base = to_poly_ideal(ideal)
        return tuple(proof.value(base) for proof in self.proofs)

    def equation_value(self, ideal: Ideal) -> Polynomial:
        """element^n + sum(a_i * element^(n-i)); zero iff the equation holds."""
        total = self.element ** self.degree
        for i, coeff in enumerate(self.coefficients(ideal), start=1):
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
        proofs = tuple(
            MembershipProof(proof.factors, tuple(q.scale(factor ** i) for q in proof.quotients))
            for i, proof in enumerate(self.proofs, start=1)
        )
        return IntegralityCertificate(self.element.scale(factor), proofs)

    def verify(self, ideal: Ideal) -> bool:
        """Exact re-verification over J's generators: the i-th proof cites
        multisets of i valid indices, and the equation, multiplied out,
        vanishes. No ideal power and no Groebner basis is built."""
        base = to_poly_ideal(ideal)
        for i, proof in enumerate(self.proofs, start=1):
            if len(proof.factors) != len(proof.quotients):
                return False
            for factor in proof.factors:
                if len(factor) != i or not all(0 <= q < len(base.gens) for q in factor):
                    return False
        return self.equation_value(base).is_zero


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

    Requires J to be a subideal of I. Writing I = J + E, with E the
    generators of I not among J's, then gives I^(k+1) = J * I^k + E^(k+1),
    so for both kinds of input the test is E^(k+1) in J * I^k: by
    ``ideal_contains`` for monomials, else generator by generator by
    ``in_poly_ideal``, which computes no lift and needs no basis for a
    literal generator. J * I^k is grown from the product below and E^(k+1)
    from E^k, so no power of I is built, and ``generator_cap`` bounds those
    two.
    """
    if k_max < 1:
        raise PreconditionError(f"k_max must be positive, got {k_max}")
    if j_ideal.dim != i_ideal.dim:
        raise DimensionMismatchError("ideals live in different rings")
    if isinstance(j_ideal, MonomialIdeal) and isinstance(i_ideal, MonomialIdeal):
        multiply, contains = ideal_product, ideal_contains
    else:
        j_ideal, i_ideal = to_poly_ideal(j_ideal), to_poly_ideal(i_ideal)
        multiply = poly_ideal_product

        def contains(big: PolyIdeal, small: PolyIdeal) -> bool:
            return all(in_poly_ideal(g, big, order, spair_cap) for g in small.gens)

    if not contains(i_ideal, j_ideal):
        raise PreconditionError("J must be contained in I")
    extra = type(i_ideal)(i_ideal.dim, tuple(g for g in i_ideal.gens if g not in j_ideal.gens))
    product, extra_power = j_ideal, extra
    for k in range(k_max + 1):
        if k:
            product = multiply(product, i_ideal, generator_cap)  # J * I^k
            extra_power = multiply(extra_power, extra, generator_cap)
        if contains(product, extra_power):
            return ReductionWitness(k)
    return NotUpTo(k_max)


def _search(
    j_ideal: Ideal, i_ideal: Ideal, k_max: int, order: TermOrder, generator_cap: int, spair_cap: int
) -> tuple[TriState, PolyIdeal, ReductionWitness | None]:
    """The general path's verdict for I over J, with J + I and the reduction
    witness behind a yes (None for any other verdict, and for zero J)."""
    j_poly, i_poly = to_poly_ideal(j_ideal), to_poly_ideal(i_ideal)
    union = poly_ideal_sum(j_poly, i_poly)
    if j_poly.is_zero:
        return (YES if i_poly.is_zero else NO), union, None
    # A unit J answers yes at k = 0 of the search: every generator of I lies
    # in J * I^0 = J.
    witness = reduction_number(j_poly, union, k_max, order, generator_cap, spair_cap)
    if isinstance(witness, ReductionWitness):
        return YES, union, witness
    return unknown(k_max), union, None


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
    monomial = isinstance(j_ideal, MonomialIdeal) and isinstance(i_ideal, MonomialIdeal)
    if monomial and not j_ideal.is_zero:
        return YES if all(closure_member(j_ideal, g) for g in i_ideal.gens) else NO
    return _search(j_ideal, i_ideal, k_max, order, generator_cap, spair_cap)[0]


def _principal(f: Polynomial, j_ideal: Ideal) -> Ideal:
    """The ideal (f), monomial when f and J both are."""
    if f.is_zero:
        raise PreconditionError("the element must be nonzero")
    if f.dim != j_ideal.dim:
        raise DimensionMismatchError("element dimension differs from ideal")
    if isinstance(j_ideal, MonomialIdeal) and f.is_monomial():
        return MonomialIdeal(f.dim, (next(iter(f.terms)),))
    return PolyIdeal(f.dim, (f,))


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
    principal = _principal(f, j_ideal)
    return is_integral_ideal(j_ideal, principal, k_max, order, generator_cap, spair_cap)


def certify_element(
    f: Polynomial,
    j_ideal: Ideal,
    k_max: int = DEFAULT_K_MAX,
    order: TermOrder = GREVLEX,
    generator_cap: int = DEFAULT_GENERATOR_CAP,
    spair_cap: int = DEFAULT_SPAIR_CAP,
) -> tuple[TriState, IntegralityCertificate | None]:
    """The verdict of :func:`is_integral_element` and, on yes, its certificate.

    A monomial f over a monomial J gets :func:`monomial_certificate`, its
    root scaled by f's coefficient. Otherwise the determinant trick runs at
    the k that the verdict's own reduction search found, over J + (f), so
    the search runs once. Any verdict but yes comes with None.
    """
    principal = _principal(f, j_ideal)
    if isinstance(principal, MonomialIdeal):
        verdict = is_integral_ideal(j_ideal, principal)
        if not verdict.is_yes:
            return verdict, None
        ((exps, coeff),) = f.terms.items()
        return verdict, monomial_certificate(exps, j_ideal).scale_root(coeff)
    verdict, union, witness = _search(j_ideal, principal, k_max, order, generator_cap, spair_cap)
    if witness is None:
        return verdict, None
    return verdict, cramer_certificate(
        f, j_ideal, union, witness.k, order, generator_cap, spair_cap
    )


def certify_ideal(
    j_ideal: Ideal,
    i_ideal: Ideal,
    k_max: int = DEFAULT_K_MAX,
    order: TermOrder = GREVLEX,
    generator_cap: int = DEFAULT_GENERATOR_CAP,
    spair_cap: int = DEFAULT_SPAIR_CAP,
) -> tuple[TriState, tuple[IntegralityCertificate, ...]]:
    """The verdict of :func:`is_integral_ideal` and, on yes, one certificate
    per generator of I, in I's order; any other verdict comes with none.

    Each generator g is certified by :func:`certify_element`. Reduction
    numbers are not monotone in the ideal, so g's own search over J + (g)
    may exhaust k_max where the search over J + I did not; g is then
    certified by the determinant trick over J + I at that search's k, since
    (J+I)^(k+1) = J * (J+I)^k gives g * (J+I)^k in J * (J+I)^k.
    """
    if j_ideal.dim != i_ideal.dim:
        raise DimensionMismatchError("ideals live in different rings")
    if isinstance(j_ideal, MonomialIdeal) and isinstance(i_ideal, MonomialIdeal):
        # Decided exactly, so every generator's own verdict is yes too.
        verdict, witness = is_integral_ideal(j_ideal, i_ideal), None
    else:
        verdict, union, witness = _search(
            j_ideal, i_ideal, k_max, order, generator_cap, spair_cap
        )
    if not verdict.is_yes:
        return verdict, ()
    certificates = []
    for g in to_poly_ideal(i_ideal).gens:
        certificate = certify_element(g, j_ideal, k_max, order, generator_cap, spair_cap)[1]
        if certificate is None:
            certificate = cramer_certificate(
                g, j_ideal, union, witness.k, order, generator_cap, spair_cap
            )
        certificates.append(certificate)
    return verdict, tuple(certificates)


# -- certificates -------------------------------------------------------------


def monomial_certificate(m: ExponentVector, j_ideal: MonomialIdeal) -> IntegralityCertificate:
    """A pure-power equation for a monomial integral over a monomial ideal.

    With convex weights lambda on the generators and n the least common
    denominator of the weights, c = n * lambda is an n-element multiset of
    generators whose exponent sum is at most n*m, so x^(n*m) is a multiple
    of that one product in J^n and t^n - x^(n*m) is the certificate; its
    last proof cites the product alone. When some generator divides m the
    weights are a unit vector and the degree is 1. J^n is never built.
    """
    dim = j_ideal.dim
    polyhedron = polyhedron_of(j_ideal)
    member, weights = polyhedron.member(m)
    if not member:
        raise PreconditionError(f"{m} is not integral over the ideal")
    assert weights is not None
    m = tuple(int(c) for c in m)
    element = Polynomial.monomial(dim, m)
    degree = lcm(*(lam.denominator for lam in weights.lambdas))
    factor = tuple(
        sorted(
            j_ideal.gens.index(vertex)
            for vertex, lam in zip(polyhedron.vertices, weights.lambdas)
            for _ in range(int(lam * degree))
        )
    )
    product = tuple(map(sum, zip(*(j_ideal.gens[q] for q in factor))))
    target = tuple(c * degree for c in m)
    shift = tuple(a - b for a, b in zip(target, product))
    if min(shift) < 0:
        raise InvariantViolationError("scaled monomial escaped the cited product")
    empty = MembershipProof((), ())
    final_proof = MembershipProof((factor,), (Polynomial.monomial(dim, shift, -1),))
    return IntegralityCertificate(element, (empty,) * (degree - 1) + (final_proof,))


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
    matrix H with f * g_i = sum(H[i][j] * g_j), whose entries are linear
    forms sum(c * y_q) in one symbol y_q per generator q of J. The
    characteristic polynomial det(t * Id - H) is monic of degree
    N = #generators, and its coefficient of t^(N-i) is a form of degree i in
    the symbols: each y-monomial is a multiset of J's generators, so the
    proof of a_i in J^i is read off the form, and substituting y_q -> q
    gives a_i. The polynomial vanishes at t = f because the ambient ring is
    a domain. Every one of these facts is re-checked exactly before
    returning.
    """
    j_poly = to_poly_ideal(j_ideal)
    i_poly = to_poly_ideal(i_ideal)
    if f.dim != j_poly.dim or j_poly.dim != i_poly.dim:
        raise DimensionMismatchError("element and ideals must share one ring")
    if f.is_zero:
        raise PreconditionError("the element must be nonzero")
    if not in_poly_ideal(f, i_poly, order, spair_cap):
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

    # The characteristic matrix lives over the ring widened by the symbols
    # y_q and then t, as trailing coordinates.
    symbols = len(j_poly.gens)
    wide = dim + symbols + 1
    y_tails = [tuple(int(q == p) for p in range(symbols)) + (0,) for q in range(symbols)]
    t_poly = Polynomial.monomial(wide, (0,) * (wide - 1) + (1,))
    char_matrix: list[list[Polynomial]] = []
    for i, g_i in enumerate(basis_ideal.gens):
        lift = poly_ideal_member(f * g_i, lift_ideal, order, spair_cap)
        if lift is None:
            raise PreconditionError(f"f * I^{k} is not in J * I^{k}")
        check = Polynomial.zero(dim)
        row = []
        for j, g_j in enumerate(basis_ideal.gens):
            entry = Polynomial.zero(dim)
            symbolic: dict[ExponentVector, Fraction] = {}  # -sum(c * y_q)
            for q_index, q in enumerate(j_poly.gens):
                coefficient = lift[q_index * count + j]
                if not coefficient.is_zero:
                    entry += coefficient * q
                    tail = y_tails[q_index]
                    symbolic.update((e + tail, -c) for e, c in coefficient.terms.items())
            check += entry * g_j
            symbolic_entry = Polynomial._trusted(wide, symbolic)
            row.append(t_poly + symbolic_entry if i == j else symbolic_entry)
        if check != f * g_i:
            raise InvariantViolationError("regrouped lift does not reproduce f * g_i")
        char_matrix.append(row)
    det = bareiss_determinant(char_matrix)

    # The terms of det, grouped by i = N - (degree in t) and then by their
    # y-monomial, written as the multiset of J's generators it names.
    forms: dict[int, dict[tuple[int, ...], dict[ExponentVector, Fraction]]] = {}
    for exps, coeff in det.terms.items():
        i, y_exps = count - exps[-1], exps[dim:-1]
        if sum(y_exps) != i:
            raise InvariantViolationError(f"coefficient {i} is not a form of degree {i}")
        factor = tuple(q for q, e in enumerate(y_exps) for _ in range(e))
        forms.setdefault(i, {}).setdefault(factor, {})[exps[:dim]] = coeff
    if forms.get(0) != {(): {(0,) * dim: Fraction(1)}}:
        raise InvariantViolationError("characteristic polynomial is not monic")
    proofs = []
    for i in range(1, count + 1):
        form = forms.get(i, {})
        factors = tuple(sorted(form))
        proofs.append(
            MembershipProof(factors, tuple(Polynomial._trusted(dim, form[c]) for c in factors))
        )
    # Substituting y_q -> q turns each form into a_i.
    certificate = IntegralityCertificate(f, tuple(proofs))
    if not certificate.equation_value(j_poly).is_zero:
        raise InvariantViolationError("characteristic polynomial does not vanish at f")
    return certificate
