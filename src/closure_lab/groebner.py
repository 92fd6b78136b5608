"""Buchberger's algorithm with a record of its steps, and general-ideal operations.

A Groebner basis records how each element was formed: a step of
(coefficient, source) pairs per element. A lift of ``f = sum(q_b * basis_b)``
over the original generators, for certificate construction, pushes the
division quotients back through that record, newest element first, and
visits only the elements the quotients reach. A membership verdict needs
only a remainder.

Pair bookkeeping uses the Gebauer-Moeller update, which implements the
product and chain criteria for skipping predictably useless S-pairs; each
pending pair keeps the lcm of its two leads from the moment it is made.

The power of a general ideal is the chain of products A * A^(n-1). In the
library only the determinant-trick certificate builds one: the generators
of I^k that its matrix acts on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

from .config import DEFAULT_GENERATOR_CAP, DEFAULT_SPAIR_CAP
from .errors import DimensionMismatchError, InstanceTooLargeError, PreconditionError
from .monomials import ExponentVector, MonomialIdeal, divides, vector_sum
from .polynomials import GREVLEX, Polynomial, TermOrder, normal_form


Step = tuple[tuple[Polynomial, int], ...]


def _lcm(a: ExponentVector, b: ExponentVector) -> ExponentVector:
    return tuple(max(x, y) for x, y in zip(a, b))


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced Groebner basis and the record of how it was formed.

    Index k < len(generators) is generator k; index len(generators) + e is
    the element that ``_steps[e]`` formed as sum(c * element[source]) over its
    (c, source) pairs. The basis is the last len(basis) elements formed.
    """

    order: TermOrder
    generators: tuple[Polynomial, ...]
    basis: tuple[Polynomial, ...]
    _steps: tuple[Step, ...] = field(repr=False)

    def lift(self, quotients: Sequence[Polynomial]) -> tuple[Polynomial, ...]:
        """The generator quotients of sum(quotients[b] * basis[b]).

        Each element's weight, seeded with its quotient, is multiplied into
        its step's coefficients and added to the step's sources, newest
        element first, and then dropped; the weights that reach the
        generators are the lift.
        """
        count = len(self.generators)
        if not count:
            return ()
        weights = [Polynomial.zero(self.generators[0].dim)] * (count + len(self._steps))
        weights[len(weights) - len(self.basis) :] = quotients
        while len(weights) > count:
            weight = weights.pop()
            if weight.is_zero:
                continue
            for coeff, source in self._steps[len(weights) - count]:
                weights[source] = weights[source] + weight * coeff
        return tuple(weights)


def buchberger(
    generators: tuple[Polynomial, ...] | list[Polynomial],
    order: TermOrder = GREVLEX,
    spair_cap: int = DEFAULT_SPAIR_CAP,
) -> GroebnerBasis:
    """Compute the reduced Groebner basis, recording the step of each element."""
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
    steps: list[Step] = []
    lms: list[ExponentVector] = []
    # Each pending S-pair (i, j), i < j, maps to lcm(lms[i], lms[j]).
    pairs: dict[tuple[int, int], ExponentVector] = {}

    def add_element(poly: Polynomial, combination: list[tuple[Polynomial, int]]) -> None:
        """Append poly made monic, with its step's coefficients scaled alike."""
        lead_exps, lead_coeff = poly.leading_term(order)
        inv = 1 / lead_coeff
        new_index = len(basis)
        new_lcms = [_lcm(lead, lead_exps) for lead in lms]
        # Gebauer-Moeller update: prune pairs made redundant by the new lead
        # monomial (chain criterion) and skip coprime pairs (product criterion).
        survivors = {
            (i, j): pair_lcm
            for (i, j), pair_lcm in pairs.items()
            if not divides(lead_exps, pair_lcm)
            or pair_lcm == new_lcms[i]
            or pair_lcm == new_lcms[j]
        }
        buckets: dict[ExponentVector, list[int]] = {}
        for i, candidate in enumerate(new_lcms):
            buckets.setdefault(candidate, []).append(i)
        kept_lcms: list[ExponentVector] = []
        for candidate in sorted(buckets, key=order.key):
            if not any(divides(kept, candidate) for kept in kept_lcms):
                kept_lcms.append(candidate)
        for candidate in kept_lcms:
            bucket = buckets[candidate]
            if any(candidate == vector_sum(lms[i], lead_exps) for i in bucket):
                continue
            survivors[(bucket[0], new_index)] = candidate
        pairs.clear()
        pairs.update(survivors)
        basis.append(poly.scale(inv))
        steps.append(tuple((c.scale(inv), source) for c, source in combination))
        lms.append(lead_exps)
        if len(pairs) > spair_cap:
            raise InstanceTooLargeError(
                f"S-pair queue reached {len(pairs)}, cap is {spair_cap} (spair_cap)"
            )

    one = Polynomial.one(dim)
    for k, g in enumerate(generators):
        add_element(g, [(one, k)])

    processed = 0
    while pairs:
        (i, j), pair_lcm = min(pairs.items(), key=lambda item: (order.key(item[1]), item[0]))
        del pairs[(i, j)]
        processed += 1
        if processed > spair_cap:
            raise InstanceTooLargeError(
                f"processed {processed} S-pairs, cap is {spair_cap} (spair_cap)"
            )
        shift_i = Polynomial.monomial(dim, [a - b for a, b in zip(pair_lcm, lms[i])])
        shift_j = Polynomial.monomial(dim, [a - b for a, b in zip(pair_lcm, lms[j])], -1)
        spoly = shift_i * basis[i] + shift_j * basis[j]
        remainder, quotients = normal_form(spoly, basis, order)
        if remainder.is_zero:
            continue
        combination = [(shift_i, count + i), (shift_j, count + j)]
        combination += [(-q, count + m) for m, q in enumerate(quotients) if not q.is_zero]
        add_element(remainder, combination)

    # Minimal basis: drop elements whose lead is divisible by another lead.
    # The survivors ascend in lead order, with distinct leads.
    kept: list[int] = []
    for idx in sorted(range(len(basis)), key=lambda idx: order.key(lms[idx])):
        if not any(divides(lms[other], lms[idx]) for other in kept):
            kept.append(idx)

    # Tail-reduce each survivor against the others; leads are untouched, so
    # one pass against the pre-reduction versions yields the reduced basis.
    reduced: list[Polynomial] = []
    tails: list[Step] = []
    for idx in kept:
        others = [other for other in kept if other != idx]
        remainder, quotients = normal_form(basis[idx], [basis[o] for o in others], order)
        combination = [(one, count + idx)]
        combination += [(-q, count + o) for q, o in zip(quotients, others) if not q.is_zero]
        reduced.append(remainder)
        tails.append(tuple(combination))

    # Presented in descending lead order.
    return GroebnerBasis(
        order, generators, tuple(reversed(reduced)), tuple(steps) + tuple(reversed(tails))
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


# Reduction search and certificate construction rebuild the same generator
# tuples as fresh ideals; 16 entries catch those repeats.
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


def poly_ideal_member(
    f: Polynomial,
    ideal: PolyIdeal,
    order: TermOrder = GREVLEX,
    spair_cap: int = DEFAULT_SPAIR_CAP,
) -> tuple[Polynomial, ...] | None:
    """The quotients q_i of f = sum(q_i * g_i) over the generators g_i, or
    None when f is not in the ideal. Generator i (its first occurrence)
    lifts to the unit vector e_i with no basis built. The zero element of
    the zero ideal lifts to (), which is falsy: test the answer with
    ``is None``."""
    if f.dim != ideal.dim:
        raise DimensionMismatchError("element dimension differs from ideal")
    if f in ideal.gens:
        index = ideal.gens.index(f)
        return tuple(Polynomial.constant(f.dim, int(i == index)) for i in range(len(ideal.gens)))
    gb = ideal.groebner(order, spair_cap)
    remainder, quotients = normal_form(f, gb.basis, order)
    return gb.lift(quotients) if remainder.is_zero else None


def in_poly_ideal(
    f: Polynomial, ideal: PolyIdeal, order: TermOrder = GREVLEX, spair_cap: int = DEFAULT_SPAIR_CAP
) -> bool:
    """Membership verdict with no lift; a literal generator needs no basis. For
    homogeneous f and generators, the degree-deg(f) part of f = sum(q_i * g_i)
    involves only generators of degree <= deg(f), so the basis uses those alone."""
    if f.dim != ideal.dim:
        raise DimensionMismatchError("element dimension differs from ideal")
    if f.is_zero or f in ideal.gens:
        return True
    gens = ideal.gens
    degrees = [set(map(sum, p.terms)) for p in (f, *gens)]
    if all(len(d) == 1 for d in degrees):
        top = max(degrees[0])
        gens = tuple(g for g, d in zip(gens, degrees[1:]) if max(d) <= top)
        if not gens:
            return False
    basis = PolyIdeal(ideal.dim, gens).groebner(order, spair_cap).basis
    return normal_form(f, basis, order)[0].is_zero


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
            f"product has {len(products)} generators, cap is {generator_cap} (generator_cap)"
        )
    return PolyIdeal(a.dim, products)


def poly_ideal_power(
    a: PolyIdeal, n: int, generator_cap: int = DEFAULT_GENERATOR_CAP
) -> PolyIdeal:
    """A^n as A * A^(n-1) by :func:`poly_ideal_product`, from A^0 = (1).

    The generators are the distinct n-fold products of A's generators, in
    order of first occurrence, and ``generator_cap`` bounds the distinct
    generators of each step, as it does for a single product.
    """
    if n < 0:
        raise PreconditionError(f"exponent must be nonnegative, got {n}")
    power = unit_poly_ideal(a.dim)
    for _ in range(n):
        power = poly_ideal_product(a, power, generator_cap)
    return power
