"""Buchberger's algorithm with cofactor tracking, and general-ideal operations.

Every Groebner basis element carries a cofactor row expressing it as an
exact combination of the original generators; membership tests compose
division quotients through those rows, so callers get explicit lifts
``f = sum(q_k * gen_k)`` suitable for certificate construction.

Pair bookkeeping uses the Gebauer-Moeller update, which implements the
product and chain criteria for skipping predictably useless S-pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement

from .config import DEFAULT_GENERATOR_CAP, DEFAULT_SPAIR_CAP
from .errors import DimensionMismatchError, InstanceTooLargeError, PreconditionError
from .monomials import ExponentVector, MonomialIdeal, divides, vector_sum
from .polynomials import GREVLEX, Polynomial, TermOrder, normal_form


def _lcm(a: ExponentVector, b: ExponentVector) -> ExponentVector:
    return tuple(max(x, y) for x, y in zip(a, b))


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced Groebner basis plus the cofactor matrix over the inputs."""

    order: TermOrder
    generators: tuple[Polynomial, ...]
    basis: tuple[Polynomial, ...]
    cofactors: tuple[tuple[Polynomial, ...], ...]

    def verify_cofactors(self) -> bool:
        """Exactly re-evaluate every basis element from its cofactor row."""
        for element, row in zip(self.basis, self.cofactors):
            total = Polynomial.zero(element.dim)
            for quotient, generator in zip(row, self.generators):
                total += quotient * generator
            if total != element:
                return False
        return True


def buchberger(
    generators: tuple[Polynomial, ...] | list[Polynomial],
    order: TermOrder = GREVLEX,
    spair_cap: int = DEFAULT_SPAIR_CAP,
) -> GroebnerBasis:
    """Compute the reduced Groebner basis with exact cofactor rows."""
    generators = tuple(generators)
    for index, g in enumerate(generators):
        if g.is_zero:
            raise PreconditionError(f"generator {index} is the zero polynomial")
    if not generators:
        return GroebnerBasis(order, (), (), ())
    dim = generators[0].dim
    for g in generators:
        if g.dim != dim:
            raise DimensionMismatchError("generators live in different rings")

    count = len(generators)
    basis: list[Polynomial] = []
    rows: list[list[Polynomial]] = []
    lms: list[ExponentVector] = []
    pairs: set[tuple[int, int]] = set()

    def add_element(poly: Polynomial, row: list[Polynomial]) -> None:
        lead_exps, lead_coeff = poly.leading_term(order)
        inv = 1 / lead_coeff
        poly = poly.scale(inv)
        row = [q.scale(inv) for q in row]
        new_index = len(basis)
        # Gebauer-Moeller update: prune pairs made redundant by the new lead
        # monomial (chain criterion) and skip coprime pairs (product criterion).
        survivors = set()
        for i, j in pairs:
            pair_lcm = _lcm(lms[i], lms[j])
            if (
                not divides(lead_exps, pair_lcm)
                or pair_lcm == _lcm(lms[i], lead_exps)
                or pair_lcm == _lcm(lms[j], lead_exps)
            ):
                survivors.add((i, j))
        buckets: dict[ExponentVector, list[int]] = {}
        for i in range(new_index):
            buckets.setdefault(_lcm(lms[i], lead_exps), []).append(i)
        kept_lcms: list[ExponentVector] = []
        for candidate in sorted(buckets, key=order.key):
            if not any(divides(kept, candidate) for kept in kept_lcms):
                kept_lcms.append(candidate)
        for candidate in kept_lcms:
            bucket = buckets[candidate]
            if any(_lcm(lms[i], lead_exps) == vector_sum(lms[i], lead_exps) for i in bucket):
                continue
            survivors.add((min(bucket), new_index))
        pairs.clear()
        pairs.update(survivors)
        basis.append(poly)
        rows.append(row)
        lms.append(lead_exps)
        if len(pairs) > spair_cap:
            raise InstanceTooLargeError(
                f"S-pair queue reached {len(pairs)}, cap is {spair_cap}"
            )

    for k, g in enumerate(generators):
        row = [Polynomial.zero(dim) for _ in range(count)]
        row[k] = Polynomial.one(dim)
        add_element(g, row)

    processed = 0
    while pairs:
        i, j = min(pairs, key=lambda p: (order.key(_lcm(lms[p[0]], lms[p[1]])), p))
        pairs.remove((i, j))
        processed += 1
        if processed > spair_cap:
            raise InstanceTooLargeError(f"processed {processed} S-pairs, cap is {spair_cap}")
        pair_lcm = _lcm(lms[i], lms[j])
        shift_i = tuple(a - b for a, b in zip(pair_lcm, lms[i]))
        shift_j = tuple(a - b for a, b in zip(pair_lcm, lms[j]))
        spoly = basis[i].mul_term(shift_i, 1) - basis[j].mul_term(shift_j, 1)
        srow = [
            rows[i][k].mul_term(shift_i, 1) - rows[j][k].mul_term(shift_j, 1)
            for k in range(count)
        ]
        remainder, quotients = normal_form(spoly, basis, order)
        if remainder.is_zero:
            continue
        for m, quotient in enumerate(quotients):
            if not quotient.is_zero:
                for k in range(count):
                    srow[k] = srow[k] - quotient * rows[m][k]
        add_element(remainder, srow)

    # Minimal basis: drop elements whose lead is divisible by another lead.
    keep_order = sorted(range(len(basis)), key=lambda idx: order.key(lms[idx]))
    kept: list[int] = []
    for idx in keep_order:
        if not any(divides(lms[other], lms[idx]) for other in kept):
            kept.append(idx)

    # Tail-reduce each survivor against the others; leads are untouched, so
    # one pass against the pre-reduction versions yields the reduced basis.
    minimal = [basis[idx] for idx in kept]
    minimal_rows = [rows[idx] for idx in kept]
    reduced: list[Polynomial] = []
    reduced_rows: list[tuple[Polynomial, ...]] = []
    for pos, poly in enumerate(minimal):
        others = minimal[:pos] + minimal[pos + 1 :]
        other_rows = minimal_rows[:pos] + minimal_rows[pos + 1 :]
        remainder, quotients = normal_form(poly, others, order)
        row = list(minimal_rows[pos])
        for quotient, other_row in zip(quotients, other_rows):
            if not quotient.is_zero:
                for k in range(count):
                    row[k] = row[k] - quotient * other_row[k]
        reduced.append(remainder)
        reduced_rows.append(tuple(row))

    presentation = sorted(
        range(len(reduced)),
        key=lambda idx: order.key(reduced[idx].leading_term(order)[0]),
        reverse=True,
    )
    return GroebnerBasis(
        order,
        generators,
        tuple(reduced[idx] for idx in presentation),
        tuple(reduced_rows[idx] for idx in presentation),
    )


@dataclass(frozen=True)
class PolyIdeal:
    """An ideal given by an ordered list of nonzero generators.

    Instances are immutable and hashable. Reduced Groebner bases come from a
    bounded module-level cache keyed by the generators, the term order and
    the S-pair cap, so equal ideals share one basis and a cap is enforced
    whatever was computed before.
    """

    dim: int
    gens: tuple[Polynomial, ...]

    def __post_init__(self):
        object.__setattr__(self, "gens", tuple(self.gens))
        for index, g in enumerate(self.gens):
            if not isinstance(g, Polynomial):
                raise PreconditionError(f"generator {index} is not a Polynomial")
            if g.is_zero:
                raise PreconditionError(f"generator {index} is the zero polynomial")
            if g.dim != self.dim:
                raise DimensionMismatchError(
                    f"generator {index} has dimension {g.dim}, expected {self.dim}"
                )

    @property
    def is_zero(self) -> bool:
        return not self.gens

    def groebner(
        self, order: TermOrder = GREVLEX, spair_cap: int = DEFAULT_SPAIR_CAP
    ) -> GroebnerBasis:
        return _cached_buchberger(self.gens, order, spair_cap)


# Reduction search, certificate construction and verification rebuild the
# same generator tuples as fresh ideals; 16 entries catch those repeats.
@lru_cache(maxsize=16)
def _cached_buchberger(
    gens: tuple[Polynomial, ...], order: TermOrder, spair_cap: int
) -> GroebnerBasis:
    return buchberger(gens, order, spair_cap)


def unit_poly_ideal(dim: int) -> PolyIdeal:
    return PolyIdeal(dim, (Polynomial.one(dim),))


def to_poly_ideal(ideal: MonomialIdeal | PolyIdeal) -> PolyIdeal:
    """The ideal as a ``PolyIdeal``; a ``PolyIdeal`` is returned unchanged."""
    if isinstance(ideal, PolyIdeal):
        return ideal
    gens = tuple(Polynomial.monomial(ideal.dim, g) for g in ideal.gens)
    return PolyIdeal(ideal.dim, gens)


@dataclass(frozen=True)
class Membership:
    member: bool
    generator_quotients: tuple[Polynomial, ...] | None


def poly_ideal_member(
    f: Polynomial,
    ideal: PolyIdeal,
    order: TermOrder = GREVLEX,
    spair_cap: int = DEFAULT_SPAIR_CAP,
) -> Membership:
    """Membership via normal form, with exact lifts over the generators."""
    if f.dim != ideal.dim:
        raise DimensionMismatchError("element dimension differs from ideal")
    gb = ideal.groebner(order, spair_cap)
    if not gb.basis:
        if f.is_zero:
            return Membership(True, ())
        return Membership(False, None)
    remainder, quotients = normal_form(f, gb.basis, order)
    if not remainder.is_zero:
        return Membership(False, None)
    composed = [Polynomial.zero(ideal.dim) for _ in ideal.gens]
    for quotient, row in zip(quotients, gb.cofactors):
        if not quotient.is_zero:
            for k in range(len(ideal.gens)):
                composed[k] += quotient * row[k]
    return Membership(True, tuple(composed))


def poly_ideal_equal(
    a: PolyIdeal,
    b: PolyIdeal,
    order: TermOrder = GREVLEX,
    spair_cap: int = DEFAULT_SPAIR_CAP,
) -> bool:
    """Ideal equality: the reduced Groebner bases coincide."""
    if a.dim != b.dim:
        raise DimensionMismatchError("ideal dimensions differ")
    return a.groebner(order, spair_cap).basis == b.groebner(order, spair_cap).basis


def poly_ideal_sum(a: PolyIdeal, b: PolyIdeal) -> PolyIdeal:
    if a.dim != b.dim:
        raise DimensionMismatchError("ideal dimensions differ")
    return PolyIdeal(a.dim, a.gens + b.gens)


def poly_ideal_product(
    a: PolyIdeal, b: PolyIdeal, generator_cap: int = DEFAULT_GENERATOR_CAP
) -> PolyIdeal:
    """Generated by all pairwise products; duplicates dropped, no GB reduction."""
    if a.dim != b.dim:
        raise DimensionMismatchError("ideal dimensions differ")
    products = tuple(dict.fromkeys(g * h for g in a.gens for h in b.gens))
    if len(products) > generator_cap:
        raise InstanceTooLargeError(
            f"product has {len(products)} generators, cap is {generator_cap}"
        )
    return PolyIdeal(a.dim, products)


def poly_ideal_power(
    a: PolyIdeal, n: int, generator_cap: int = DEFAULT_GENERATOR_CAP
) -> PolyIdeal:
    """Generated by the distinct n-fold products of generators; A^0 = (1)."""
    if n < 0:
        raise PreconditionError(f"exponent must be nonnegative, got {n}")
    if n == 0:
        return unit_poly_ideal(a.dim)
    if a.is_zero:
        return PolyIdeal(a.dim, ())
    products: list[Polynomial] = []
    for combo in combinations_with_replacement(range(len(a.gens)), n):
        value = a.gens[combo[0]]
        for idx in combo[1:]:
            value = value * a.gens[idx]
        products.append(value)
        if len(products) > generator_cap:
            raise InstanceTooLargeError(
                f"power has more than {generator_cap} generators"
            )
    return PolyIdeal(a.dim, tuple(dict.fromkeys(products)))
