"""Shared test utilities: tiny constructors and independent oracles.

The oracles here deliberately re-derive answers from first principles
(divisibility scans, pairwise minimalization, binary powering, box scans
with the simplex, scaling, cofactor expansion, ideal equality by reduced
Groebner bases, division by whole polynomial operations, Buchberger's loop
with every lcm and cofactor row recomputed in place, certificate checks by
ideal membership, an element certified after a second reduction search) so
library paths are checked against something they do not share code with.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction
from itertools import product
from pathlib import Path

import closure_lab
from closure_lab import simplex
from closure_lab.config import DEFAULT_GENERATOR_CAP, DEFAULT_SPAIR_CAP
from closure_lab.errors import (
    DimensionMismatchError,
    InstanceTooLargeError,
    PreconditionError,
)
from closure_lab.groebner import (
    GroebnerBasis,
    PolyIdeal,
    poly_ideal_member,
    poly_ideal_power,
    poly_ideal_product,
    poly_ideal_sum,
    to_poly_ideal,
)
from closure_lab.integrality import (
    NotUpTo,
    ReductionWitness,
    cramer_certificate,
    is_integral_element,
    monomial_certificate,
    reduction_number,
)
from closure_lab.lab import ExponentRow, UniformExponentReport, witness_pair
from closure_lab.monomials import (
    ExponentVector,
    MonomialIdeal,
    contains_monomial,
    divides,
    ideal_power,
    ideal_product,
    minimalize,
    unit_ideal,
    vector_sum,
)
from closure_lab.newton import closure
from closure_lab.polynomials import GREVLEX, Polynomial, TermOrder, normal_form


def package_env() -> dict[str, str]:
    """The environment with the imported ``closure_lab`` first on the path, so
    a ``python -m closure_lab`` subprocess runs the code under test."""
    source = str(Path(closure_lab.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": source + (os.pathsep + path if path else "")}


def mono(dim, *gens) -> MonomialIdeal:
    return minimalize(dim, gens)


def brute_contains(ideal: MonomialIdeal, m) -> bool:
    """Independent divisibility scan."""
    for g in ideal.gens:
        if all(g[i] <= m[i] for i in range(len(m))):
            return True
    return False


def reference_minimal_vectors(vectors) -> list:
    """Reference minimalization by pairwise scan: the <=-minimal elements of
    a set of vectors, deduplicated, in ascending (total degree, vector)
    order. Each candidate is compared with every earlier survivor."""
    # Sorting by total degree means a vector can only be dominated by an
    # earlier survivor, so one forward pass suffices.
    pending = sorted(set(vectors), key=lambda v: (sum(v), v))
    kept = []
    for v in pending:
        if not any(divides(g, v) for g in kept):
            kept.append(v)
    return kept


def reference_ideal_contains(a: MonomialIdeal, b: MonomialIdeal) -> bool:
    """Reference containment: each generator of b is looked up in a by a
    linear divisibility scan."""
    if a.dim != b.dim:
        raise DimensionMismatchError(f"ideal dimensions differ: {a.dim} vs {b.dim}")
    return all(contains_monomial(a, g) for g in b.gens)


def scaling_closure_member(ideal: MonomialIdeal, m, n_limit: int = 6) -> bool:
    """Brute-force oracle: x^m is integral over J iff (x^m)^n lies in J^n for
    some n; checked for n up to n_limit by plain divisibility."""
    for n in range(1, n_limit + 1):
        target = tuple(n * c for c in m)
        power = ideal_power(ideal, n)
        if any(all(g[i] <= target[i] for i in range(len(target))) for g in power.gens):
            return True
    return False


def box_scan_closure(ideal: MonomialIdeal) -> MonomialIdeal:
    """Reference closure of a nonzero monomial ideal: the minimal elements of
    the box points that the exact simplex places in the Newton polyhedron.

    Points are scanned in ascending total degree, so a point divisible by an
    accepted one is a non-minimal member and needs no solve. The separating
    functional w of a failed solve (w . v >= 1 at every vertex) refutes each
    later point p with w . p < 1 without another solve.
    """
    bounds = [max(g[j] for g in ideal.gens) for j in range(ideal.dim)]
    kept = []
    separators = []
    for point in sorted(product(*(range(b + 1) for b in bounds)), key=sum):
        if any(all(g[i] <= point[i] for i in range(ideal.dim)) for g in kept):
            continue
        if any(
            sum(w * c for w, c in zip(functional, point)) < 1 for functional in separators
        ):
            continue
        outcome = simplex.dominating_combination(ideal.gens, point)
        if isinstance(outcome, simplex.Feasible):
            kept.append(point)
        else:
            separators.append(outcome.functional)
    return MonomialIdeal(ideal.dim, tuple(kept))


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


def equality_reduction_number(j_ideal, i_ideal, k_max: int):
    """Reference reduction number: the least k <= k_max with
    I^(k+1) = J * I^k, each equality decided by building both sides from the
    power I^k. Monomial pairs compare canonical minimal generators; others
    compare the reduced Groebner bases of both sides (two bases per k)."""
    if isinstance(j_ideal, MonomialIdeal) and isinstance(i_ideal, MonomialIdeal):
        if not reference_ideal_contains(i_ideal, j_ideal):
            raise PreconditionError("J must be contained in I")
        current = unit_ideal(i_ideal.dim)  # I^0
        for k in range(k_max + 1):
            next_power = ideal_product(i_ideal, current)
            if next_power == ideal_product(j_ideal, current):
                return ReductionWitness(k)
            current = next_power
        return NotUpTo(k_max)
    j_poly = to_poly_ideal(j_ideal)
    i_poly = to_poly_ideal(i_ideal)
    for g in j_poly.gens:
        if poly_ideal_member(g, i_poly) is None:
            raise PreconditionError("J must be contained in I")
    current = poly_ideal_power(i_poly, 0)
    for k in range(k_max + 1):
        next_power = poly_ideal_power(i_poly, k + 1)
        product = poly_ideal_product(j_poly, current)
        if poly_ideal_equal(next_power, product):
            return ReductionWitness(k)
        current = next_power
    return NotUpTo(k_max)


def reference_normal_form(
    f: Polynomial, divisors, order: TermOrder
) -> tuple[Polynomial, list[Polynomial]]:
    """Reference multivariate division, one new Polynomial per operation:
    the leading term of what is left is cancelled by the first divisor whose
    leading term divides it, or moved to the remainder."""
    divisors = list(divisors)
    leads = []
    for g in divisors:
        if g.dim != f.dim:
            raise DimensionMismatchError("divisor dimension differs from dividend")
        if g.is_zero:
            raise PreconditionError("divisors must be nonzero")
        leads.append(g.leading_term(order))
    quotients = [Polynomial.zero(f.dim) for _ in divisors]
    remainder = Polynomial.zero(f.dim)
    current = f
    while not current.is_zero:
        exps, coeff = current.leading_term(order)
        for i, (lead_exps, lead_coeff) in enumerate(leads):
            if all(a <= b for a, b in zip(lead_exps, exps)):
                shift = tuple(b - a for a, b in zip(lead_exps, exps))
                factor = Fraction(coeff) / lead_coeff
                quotients[i] += Polynomial.monomial(f.dim, shift, factor)
                current = current - divisors[i] * Polynomial.monomial(f.dim, shift, factor)
                break
        else:
            lead = Polynomial.monomial(f.dim, exps, coeff)
            remainder += lead
            current = current - lead
    return remainder, quotients


def _lcm(a: ExponentVector, b: ExponentVector) -> ExponentVector:
    return tuple(max(x, y) for x, y in zip(a, b))


def reference_buchberger(
    generators: tuple[Polynomial, ...] | list[Polynomial],
    order: TermOrder = GREVLEX,
    spair_cap: int = DEFAULT_SPAIR_CAP,
) -> tuple[tuple[Polynomial, ...], tuple[tuple[Polynomial, ...], ...]]:
    """Reference Buchberger loop: the reduced Groebner basis and its exact
    cofactor rows, each pair's lcm recomputed wherever it is read and each
    S-pair row formed entry by entry, zero entries included."""
    generators = tuple(generators)
    for index, g in enumerate(generators):
        if g.is_zero:
            raise PreconditionError(f"generator {index} is the zero polynomial")
    if not generators:
        return (), ()
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
        inv = Fraction(1) / lead_coeff
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
                f"S-pair queue reached {len(pairs)}, cap is {spair_cap} (spair_cap)"
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
            raise InstanceTooLargeError(
                f"processed {processed} S-pairs, cap is {spair_cap} (spair_cap)"
            )
        pair_lcm = _lcm(lms[i], lms[j])
        shift_i = tuple(a - b for a, b in zip(pair_lcm, lms[i]))
        shift_j = tuple(a - b for a, b in zip(pair_lcm, lms[j]))
        lift_i = Polynomial.monomial(dim, shift_i)
        lift_j = Polynomial.monomial(dim, shift_j)
        spoly = basis[i] * lift_i - basis[j] * lift_j
        srow = [rows[i][k] * lift_i - rows[j][k] * lift_j for k in range(count)]
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
    return (
        tuple(reduced[idx] for idx in presentation),
        tuple(reduced_rows[idx] for idx in presentation),
    )


def basis_rows(gb: GroebnerBasis) -> tuple[tuple[Polynomial, ...], ...]:
    """The cofactor row of each basis element over the generators: the lift
    of the quotient vector that is one at that element and zero elsewhere."""
    if not gb.basis:
        return ()
    dim, size = gb.basis[0].dim, len(gb.basis)
    zero, one = Polynomial.zero(dim), Polynomial.one(dim)
    return tuple(gb.lift([one if m == b else zero for m in range(size)]) for b in range(size))


def rows_reproduce_basis(gb: GroebnerBasis) -> bool:
    """Exactly re-evaluate every basis element from its row in :func:`basis_rows`."""
    for element, row in zip(gb.basis, basis_rows(gb)):
        total = Polynomial.zero(element.dim)
        for quotient, generator in zip(row, gb.generators):
            total += quotient * generator
        if total != element:
            return False
    return True


def cofactor_determinant(matrix: list[list[Polynomial]]) -> Polynomial:
    """Determinant by first-row expansion; quadratic blowup, small inputs only."""
    n = len(matrix)
    dim = matrix[0][0].dim
    if n == 1:
        return matrix[0][0]
    total = Polynomial.zero(dim)
    for j in range(n):
        entry = matrix[0][j]
        if entry.is_zero:
            continue
        minor = [row[:j] + row[j + 1 :] for row in matrix[1:]]
        term = entry * cofactor_determinant(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def reference_verify(certificate, ideal) -> bool:
    """Re-verification by ideal membership, sharing no code with the
    certificate's own check: each multiset of the i-th proof has i indices
    into the ideal's generators and is multiplied out by its own loop; each
    product lies in ideal^i, which is built in full (and, for a general
    ideal, given a Groebner basis) once per proof; and the equation, with
    a_i summed from the quotient multiples, vanishes at the element. An
    empty list of proofs leaves the equation 1 = 0."""
    gens = to_poly_ideal(ideal).gens
    f = certificate.element
    n = len(certificate.proofs)
    total = f ** n
    for i, proof in enumerate(certificate.proofs, start=1):
        if len(proof.factors) != len(proof.quotients):
            return False
        products = []
        for factor in proof.factors:
            if len(factor) != i or any(q < 0 or q >= len(gens) for q in factor):
                return False
            cited = Polynomial.one(f.dim)
            for q in factor:
                cited = cited * gens[q]
            products.append(cited)
        coefficient = Polynomial.zero(f.dim)
        for quotient, cited in zip(proof.quotients, products):
            coefficient = coefficient + quotient * cited
        total = total + coefficient * f ** (n - i)
        if not products:
            continue
        if isinstance(ideal, MonomialIdeal):
            power = ideal_power(ideal, i)
            if not all(contains_monomial(power, next(iter(g.terms))) for g in products):
                return False
            continue
        power = poly_ideal_power(to_poly_ideal(ideal), i)
        if any(poly_ideal_member(g, power) is None for g in products):
            return False
    return total.is_zero


def two_search_certify(
    f: Polynomial,
    j_ideal,
    k_max: int,
    order: TermOrder = GREVLEX,
    generator_cap: int = DEFAULT_GENERATOR_CAP,
    spair_cap: int = DEFAULT_SPAIR_CAP,
):
    """``is-integral --element f --certify`` as the command once dispatched
    it: the verdict, then on yes either the monomial certificate (its root
    scaled when f's coefficient is not 1) or a second reduction search over
    J + (f) and the determinant trick at the k it finds. Returns the verdict
    and the certificate, or None."""
    verdict = is_integral_element(f, j_ideal, k_max, order, generator_cap, spair_cap)
    if not verdict.is_yes:
        return verdict, None
    if isinstance(j_ideal, MonomialIdeal) and f.is_monomial():
        exps, coeff = next(iter(f.terms.items()))
        certificate = monomial_certificate(exps, j_ideal)
        return verdict, certificate if coeff == 1 else certificate.scale_root(coeff)
    j_poly = to_poly_ideal(j_ideal)
    extended = poly_ideal_sum(j_poly, PolyIdeal(j_poly.dim, (f,)))
    witness = reduction_number(j_poly, extended, k_max, order, generator_cap, spair_cap)
    if not isinstance(witness, ReductionWitness):
        return verdict, None
    return verdict, cramer_certificate(
        f, j_poly, extended, witness.k, order, generator_cap, spair_cap
    )


def sheared_general_pair(
    rng: random.Random, extras: int = 1, repeat: bool = True
) -> tuple[PolyIdeal, PolyIdeal]:
    """A pair J in I of general ideals: a two-generator monomial ideal J
    (dimension 2 or 3, exponents at most 3) and I = J + (f_1, ..., f_extras),
    where each f is the rounded-up midpoint of J's generators (integral over
    J) or a random monomial, all sheared by x_i -> x_i + c * x_j. With
    ``repeat`` false, I is given by g + x_k * f_1 for each generator g of J,
    then the f's, so none of I's generators is one of J's."""
    dim = rng.choice((2, 3))
    while True:
        gens = [tuple(rng.randint(0, 3) for _ in range(dim)) for _ in range(2)]
        if len(minimalize(dim, gens).gens) == 2:
            break
    points = []
    for _ in range(extras):
        if rng.random() < 0.5:
            points.append(tuple((a + b + 1) // 2 for a, b in zip(*gens)))
        else:
            last = rng.randint(1, 3)  # a nonzero point keeps I proper
            points.append(tuple(rng.randint(0, 3) for _ in range(dim - 1)) + (last,))
    i, j = rng.sample(range(dim), 2)
    c = rng.choice((-2, -1, 1, 2))
    image = Polynomial.variable(dim, i) + Polynomial.variable(dim, j).scale(c)

    def shear(exps):
        rest = tuple(0 if k == i else e for k, e in enumerate(exps))
        return Polynomial.monomial(dim, rest) * image ** exps[i]

    j_gens = tuple(shear(g) for g in gens)
    added = tuple(dict.fromkeys(shear(p) for p in points))
    if repeat:
        return PolyIdeal(dim, j_gens), PolyIdeal(dim, j_gens + added)
    while True:
        mixed = tuple(
            g + Polynomial.variable(dim, rng.randrange(dim)) * added[0] for g in j_gens
        )
        if all(not g.is_zero for g in mixed):
            return PolyIdeal(dim, j_gens), PolyIdeal(dim, mixed + added)


def iterated_product(ideal: MonomialIdeal, n: int) -> MonomialIdeal:
    """n-fold product computed the slow, definitional way."""
    result = unit_ideal(ideal.dim)
    for _ in range(n):
        result = ideal_product(result, ideal)
    return result


def witness_power_not_contained(d: int) -> bool:
    """Check (c) of the witness pair the long way: build all of I^(d-1) and
    look for a generator outside J. At d = 7, I^6 has 18,564 generators."""
    pair = witness_pair(d)
    return not reference_ideal_contains(pair.j_ideal, ideal_power(pair.i_ideal, d - 1))


def reference_ideal_power(ideal: MonomialIdeal, n: int) -> MonomialIdeal:
    """The n-th power by binary powering in a loop, with no cache: square the
    base, and multiply it in at each set bit of n. Equal to the n-fold
    product because multiplication is associative and the minimal-generator
    representation is canonical."""
    result = unit_ideal(ideal.dim)
    base = ideal
    while n:
        if n & 1:
            result = ideal_product(result, base)
        n >>= 1
        if n:
            base = ideal_product(base, base)
    return result


def two_search_uniform_exponents(
    ideal: MonomialIdeal, n_max: int, generator_cap: int = DEFAULT_GENERATOR_CAP
) -> UniformExponentReport:
    """Reference uniform exponents: for each n, two searches descending from
    s = n + 1, one for closure(J)^n and one for closure(J^n), each testing
    containment in a built J^s by a linear divisibility scan; containment in
    J^(n + 1) raises."""
    closed = closure(ideal, n=1)
    rows = []
    for n in range(1, n_max + 1):
        shifts = []
        for candidate in (ideal_power(closed, n, generator_cap), closure(ideal, n=n)):
            s = n + 1
            while not reference_ideal_contains(ideal_power(ideal, s, generator_cap), candidate):
                s -= 1
            if s > n:
                raise AssertionError(f"{candidate} lies in J^{s}")
            shifts.append(s)
        rows.append(ExponentRow(n, *shifts))
    k_bar = max(row.n - row.s_bar for row in rows)
    k_cl = max(row.n - row.s_closure for row in rows)
    return UniformExponentReport(ideal, n_max, tuple(rows), k_bar, k_cl)


def random_polynomial(
    rng: random.Random, dim: int, max_terms: int = 4, max_exp: int = 3
) -> Polynomial:
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(0, max_exp) for _ in range(dim))
        numerator = rng.randint(-4, 4)
        if numerator == 0:
            numerator = 1
        terms[exps] = Fraction(numerator, rng.randint(1, 3))
    return Polynomial(dim, terms)


def random_nonzero_polynomial(rng: random.Random, dim: int, **kwargs) -> Polynomial:
    while True:
        poly = random_polynomial(rng, dim, **kwargs)
        if not poly.is_zero:
            return poly
