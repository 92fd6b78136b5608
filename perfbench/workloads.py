"""Seeded inputs, item runners and answer checks for the three workloads.

Every input is drawn here from the workload seed, and the expected answer of
each item is fixed by how the item was built, never by calling the library.
The library only ever receives the generated ideals and elements.

Item runners call the library through module attributes (``lab.chain_check``
and so on), so the outside-in tracer in ``tracer.py`` sees every call once it
has rebound those names.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, log, prod
from time import perf_counter

from closure_lab import groebner, integrality, lab
from closure_lab.groebner import PolyIdeal
from closure_lab.monomials import MonomialIdeal
from closure_lab.polynomials import Polynomial

# sample-suite's distribution: dimension 2 or 3, 2 to 5 drawn generators,
# exponents at most 6; its pair J inside I adds 0 to 2 extra generators.
DIMS = (2, 3)
GEN_COUNTS = (2, 3, 4, 5)
MAX_EXP = 6

# Candidates drawn per item picked (see _systematic).
POOL_FACTOR = 4

# Each workload: items per pass and the caps its calls use.
SUITE_ITEMS = 1500
SUITE_N_MAX = 2
SUITE_K_MAX = 4
SUITE_CONFIRM_K_MAX = 10
WITNESS_DS = (5, 6)
CERTIFY_ITEMS = 450
CERTIFY_K_MAX = 2
# certify draws small ideals: the sheared powers of J + (f) that reduction
# search builds grow as C(gens + k, k), and with three generators and
# exponents up to 4 single queries took up to 4 s.
CERTIFY_GENS = 2
CERTIFY_MAX_EXP = 3

CERTIFY_KINDS = ("yes", "no_in_radical", "no_outside_radical")


@dataclass(frozen=True)
class Outcome:
    """What one item produced: a canonical line for the determinism digest,
    whether the answer contradicts the construction, whether the item
    failed (wrong, raised, hit a cap or carried a bad certificate), and
    how many integrality queries it made and how many were answered
    ``unknown``."""

    line: str
    wrong: bool = False
    failed: bool = False
    queries: int = 1
    unknown: int = 0
    parts: tuple[tuple[str, float], ...] = ()  # (label, seconds) per query


def _systematic(rng: random.Random, pool: list, key, count: int) -> list:
    """Pick ``count`` candidates from ``pool`` by systematic sampling over the
    pool sorted by ``key``, a property of the input that drives its cost.

    Every candidate is equally likely to be picked, so the picks follow the
    pool's distribution; but each pick comes from its own slice of the key
    order, so every seed gets the same spread of cheap and costly inputs and
    a run's total work varies little from seed to seed. The picks are then
    shuffled, so a run does not go from cheap to costly.
    """
    ordered = sorted(range(len(pool)), key=lambda index: (key(pool[index]), index))
    step = len(pool) / count
    offset = rng.random() * step
    picks = [pool[ordered[int(offset + k * step)]] for k in range(count)]
    rng.shuffle(picks)
    return picks


def _draw_vectors(
    rng: random.Random, dim: int, count: int, max_exp: int = MAX_EXP
) -> list[tuple[int, ...]]:
    """Generator exponents of a proper monomial ideal: unit draws are redrawn."""
    while True:
        vectors = [tuple(rng.randint(0, max_exp) for _ in range(dim)) for _ in range(count)]
        if all(any(v) for v in vectors):
            return vectors


# -- suite --------------------------------------------------------------------


@dataclass(frozen=True)
class SuiteItem:
    ideal: MonomialIdeal
    bigger: MonomialIdeal


def _minimal(vectors) -> list[tuple[int, ...]]:
    distinct = set(vectors)
    return sorted(
        v for v in distinct
        if not any(w != v and all(a <= b for a, b in zip(w, v)) for w in distinct)
    )


def _suite_key(candidate):
    """A trial's predicted log cost. Closure enumeration dominates and grows
    with the box spanned by J's generators, their number and the dimension;
    a least-squares fit of log time on these over 800 drawn trials gave
    these weights and explained 96% of the variance of log time. Whether I
    has a generator outside J added under 1%."""
    dim, gens, _ = candidate
    box = prod(max(g[j] for g in gens) + 1 for j in range(dim))
    return log(box) + 0.75 * len(gens) + 0.5 * dim


def suite_items(seed: int, count: int) -> list[SuiteItem]:
    rng = random.Random(seed)
    pool = []
    for _ in range(POOL_FACTOR * count):
        dim = rng.choice(DIMS)
        gens = _minimal(_draw_vectors(rng, dim, rng.choice(GEN_COUNTS)))
        extras = [
            tuple(rng.randint(0, MAX_EXP) for _ in range(dim))
            for _ in range(rng.randint(0, 2))
        ]
        pool.append((dim, gens, extras))
    return [
        SuiteItem(MonomialIdeal(dim, tuple(gens)), MonomialIdeal(dim, tuple(gens + extras)))
        for dim, gens, extras in _systematic(rng, pool, _suite_key, count)
    ]


def run_suite_item(item: SuiteItem) -> Outcome:
    """One sample-suite trial through the public calls, with its cross-checks:
    the containment chain, the shifted containment, k_cl <= dim - 1, and the
    polyhedral integrality answer against reduction search."""
    ideal, dim = item.ideal, item.ideal.dim
    chain_ok = lab.chain_check(ideal, SUITE_N_MAX)
    shifted_ok = lab.lipman_sathaye_check(ideal, SUITE_N_MAX).ok
    report = lab.uniform_exponents(ideal, SUITE_N_MAX)
    decided = integrality.is_integral_ideal(ideal, item.bigger)
    searched = integrality.reduction_number(ideal, item.bigger, SUITE_K_MAX)
    if decided.is_yes and not isinstance(searched, integrality.ReductionWitness):
        # A reduction exists but may need more than SUITE_K_MAX steps (one
        # drawn pair needed 5): search on to sample-suite's cap first.
        searched = integrality.reduction_number(ideal, item.bigger, SUITE_CONFIRM_K_MAX)
    agree = decided.is_yes == isinstance(searched, integrality.ReductionWitness)
    line = (
        f"{ideal.gens}|{item.bigger.gens}|chain={chain_ok}|shifted={shifted_ok}"
        f"|k_bar={report.k_bar}|k_cl={report.k_cl}|{decided.kind}|{searched}"
    )
    wrong = not (chain_ok and shifted_ok and report.k_cl <= dim - 1 and agree)
    return Outcome(line, wrong=wrong, failed=wrong)


# -- witness ------------------------------------------------------------------


def witness_items(seed: int, count: int) -> list[int]:
    """The witness family is fixed by d alone; the seed changes nothing."""
    return list(WITNESS_DS[:count])


def run_witness_item(d: int) -> Outcome:
    verdict = lab.verify_witness(d)
    line = (
        f"d={d}|integral={verdict.integral}|diagonal_outside={verdict.diagonal_outside}"
        f"|power_not_contained={verdict.power_not_contained}"
    )
    return Outcome(line, wrong=not verdict.passed, failed=not verdict.passed)


# -- certify ------------------------------------------------------------------


@dataclass(frozen=True)
class CertifyItem:
    """One element f over one monomial ideal J, asked twice: as drawn (the
    monomial path) and after an integer shear of both (the general path)."""

    kind: str
    ideal: MonomialIdeal
    point: tuple[int, ...]  # f = x^point on the monomial path
    sheared_gens: tuple[Polynomial, ...]
    sheared_element: Polynomial


def _shear_terms(exps: tuple[int, ...], i: int, j: int, c: int) -> dict:
    """x^exps under the substitution x_i -> x_i + c * x_j, expanded."""
    terms: dict[tuple[int, ...], int] = {}
    a = exps[i]
    for t in range(a + 1):
        e = list(exps)
        e[i] = a - t
        e[j] += t
        key = tuple(e)
        terms[key] = terms.get(key, 0) + comb(a, t) * c**t
    return {e: Fraction(v) for e, v in terms.items() if v}


def _support(v: tuple[int, ...]) -> frozenset[int]:
    return frozenset(k for k, e in enumerate(v) if e)


def _yes_element(rng, vectors):
    """The rounded-up midpoint of two generators lies over their segment of
    the Newton polyhedron, so it is integral."""
    g, h = rng.sample(vectors, 2)
    return tuple((a + b + 1) // 2 for a, b in zip(g, h))


def _no_in_radical_element(rng, vectors):
    """A monomial whose support holds some generator's support (so it lies
    in the radical) but whose weighted degree is below the least weighted
    degree of any generator, which separates it from the Newton polyhedron."""
    dim = len(vectors[0])
    weights = tuple(rng.randint(1, 3) for _ in range(dim))
    threshold = min(sum(w * e for w, e in zip(weights, v)) for v in vectors)
    supports = sorted({_support(v) for v in vectors}, key=sorted)
    rng.shuffle(supports)
    for support in supports:
        point = [1 if k in support else 0 for k in range(dim)]
        if sum(w * e for w, e in zip(weights, point)) >= threshold:
            continue
        for _ in range(rng.randint(0, 4)):
            k = rng.choice(sorted(support))
            point[k] += 1
            if sum(w * e for w, e in zip(weights, point)) >= threshold:
                point[k] -= 1
        return tuple(point)
    return None


def _no_outside_radical_element(rng, vectors):
    """A monomial whose support contains no generator's support lies outside
    the radical, which holds the integral closure."""
    dim = len(vectors[0])
    supports = [_support(v) for v in vectors]
    subsets = [
        frozenset(k for k in range(dim) if mask >> k & 1) for mask in range(1, 2**dim - 1)
    ]
    allowed = [s for s in subsets if not any(g <= s for g in supports)]
    if not allowed:
        return None
    chosen = rng.choice(sorted(allowed, key=sorted))
    return tuple(rng.randint(1, CERTIFY_MAX_EXP) if k in chosen else 0 for k in range(dim))


_ELEMENT_BUILDERS = {
    "yes": _yes_element,
    "no_in_radical": _no_in_radical_element,
    "no_outside_radical": _no_outside_radical_element,
}


def _certify_key(candidate):
    """Cost drivers of a query: the dimension and the degrees of f and of J's
    generators, which set the size of the powers reduction search builds."""
    dim, gens, point = candidate
    return (dim, sum(point), max(sum(g) for g in gens))


def certify_items(seed: int, count: int) -> list[CertifyItem]:
    rng = random.Random(seed)
    per_kind = -(-count // len(CERTIFY_KINDS))
    picked = []
    for kind in CERTIFY_KINDS:
        pool = []
        while len(pool) < POOL_FACTOR * per_kind:
            dim = rng.choice(DIMS)
            gens = _minimal(_draw_vectors(rng, dim, CERTIFY_GENS, CERTIFY_MAX_EXP))
            point = _ELEMENT_BUILDERS[kind](rng, gens) if len(gens) == CERTIFY_GENS else None
            if point is not None:
                pool.append((dim, gens, point))
        picked += [(kind, c) for c in _systematic(rng, pool, _certify_key, per_kind)]
    rng.shuffle(picked)
    items = []
    for kind, (dim, gens, point) in picked[:count]:
        i, j = rng.sample(range(dim), 2)
        c = rng.choice((-2, -1, 1, 2))
        items.append(
            CertifyItem(
                kind,
                MonomialIdeal(dim, tuple(gens)),
                point,
                tuple(Polynomial(dim, _shear_terms(g, i, j, c)) for g in gens),
                Polynomial(dim, _shear_terms(point, i, j, c)),
            )
        )
    return items


def _certify_query(element: Polynomial, j_ideal) -> tuple[str, int, bool]:
    """``is-integral --element f --certify`` through the library: the verdict,
    then on ``yes`` a certificate re-verified against J. Returns the verdict,
    the certificate's degree (0 without one) and whether it re-verified."""
    verdict = integrality.is_integral_element(element, j_ideal, CERTIFY_K_MAX)
    if not verdict.is_yes:
        return verdict.kind, 0, True
    if isinstance(j_ideal, MonomialIdeal):
        certificate = integrality.monomial_certificate(next(iter(element.terms)), j_ideal)
    else:
        extended = groebner.poly_ideal_sum(j_ideal, PolyIdeal(j_ideal.dim, (element,)))
        witness = integrality.reduction_number(j_ideal, extended, CERTIFY_K_MAX)
        certificate = integrality.cramer_certificate(element, j_ideal, extended, witness.k)
    return verdict.kind, certificate.degree, certificate.verify(j_ideal)


def run_certify_item(item: CertifyItem) -> Outcome:
    """Both queries of the item. A yes item has reduction exponent at most 1,
    so anything but yes is wrong; a no item may be answered no or unknown,
    never yes. The monomial path decides exactly, so it must answer no."""
    dim = item.ideal.dim
    start = perf_counter()
    monomial = _certify_query(Polynomial.monomial(dim, item.point), item.ideal)
    middle = perf_counter()
    # a fresh PolyIdeal, so no Groebner basis is cached before the query
    sheared = _certify_query(item.sheared_element, PolyIdeal(dim, item.sheared_gens))
    end = perf_counter()
    expected = "yes" if item.kind == "yes" else "no"
    wrong = (
        monomial[0] != expected
        or not monomial[2]
        or not sheared[2]
        or (sheared[0] == "yes") != (expected == "yes")
    )
    line = f"{item.kind}|{item.ideal.gens}|{item.point}|{monomial}|{sheared}"
    unknowns = (monomial[0] == "unknown") + (sheared[0] == "unknown")
    parts = ((f"{item.kind}.monomial", middle - start), (f"{item.kind}.sheared", end - middle))
    return Outcome(line, wrong=wrong, failed=wrong, queries=2, unknown=unknowns, parts=parts)


WORKLOADS = {
    "suite": (suite_items, run_suite_item, SUITE_ITEMS),
    "witness": (witness_items, run_witness_item, len(WITNESS_DS)),
    "certify": (certify_items, run_certify_item, CERTIFY_ITEMS),
}

CAPS = {
    "suite": {"n_max": SUITE_N_MAX, "k_max": SUITE_K_MAX},
    "witness": {"n_max": None, "k_max": None},
    "certify": {"n_max": None, "k_max": CERTIFY_K_MAX},
}
