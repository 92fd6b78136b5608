"""Experiment harness: uniform-exponent measurements, the lower-bound witness
family, and expected-containment checks on monomial ideals.

For a proper nonzero monomial ideal J and each n, the harness measures the
largest s with closure(J)^n inside J^s and the largest s with closure(J^n)
inside J^s; the gaps n - s, maximized over n, are the per-ideal uniform
exponents reported as k_bar and k_cl. Reports carry per-n rows rather than
any claim that the gaps stabilize, and nothing here computes the ring-wide
supremum over all ideals. closure(J^n) is ``closure(J, box_point_cap, n=n)``.
Both searches descend from s = n, and neither builds J^(n+1): a degree count
shows each candidate outside it, as every generator of J^(n+1) has total
degree at least (n + 1) times the least degree of J's generators. Where
closure(J^n) = closure(J)^n, one search answers both.

The witness check shows I^(d-1) outside J by citing one product of d - 1
generators of I, so it builds no power and no cap bounds it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .config import DEFAULT_BOX_POINT_CAP, DEFAULT_GENERATOR_CAP
from .errors import InvariantViolationError, PreconditionError
from .integrality import ReductionWitness, is_integral_ideal, reduction_number
from .monomials import (
    MonomialIdeal,
    contains_monomial,
    ideal_contains,
    ideal_power,
    ideal_sum,
    minimalize,
    vector_sum,
)
from .newton import closure


@dataclass(frozen=True)
class ExponentRow:
    n: int
    s_bar: int
    s_closure: int


@dataclass(frozen=True)
class UniformExponentReport:
    """Per-n shifts realizing the two containments, and their maxima."""

    ideal: MonomialIdeal
    n_max: int
    rows: tuple[ExponentRow, ...]
    k_bar: int
    k_cl: int

    def __post_init__(self):
        for row in self.rows:
            if not (row.s_closure <= row.s_bar <= row.n):
                raise InvariantViolationError(f"inconsistent report row {row}")
        if self.k_bar > self.k_cl:
            raise InvariantViolationError("k_bar exceeds k_cl")


def _max_contained_power(
    base: MonomialIdeal, candidate: MonomialIdeal, n: int, generator_cap: int
) -> int:
    """Largest s <= n with candidate inside base^s; the containments are
    nested, so the first hit of a search descending from n is the maximum.

    That the candidate lies outside base^(n + 1) is checked by a degree
    count, not assumed and not tested on a built power: every generator of
    base^(n + 1) has total degree at least (n + 1) * delta, delta the least
    total degree of base's generators, so one generator of the candidate of
    lower degree shows it outside. A candidate containing base^n always has
    one, as base proper has delta >= 1; none is an internal error."""
    bound = (n + 1) * min(sum(g) for g in base.gens)
    if all(sum(g) >= bound for g in candidate.gens):
        raise InvariantViolationError(f"containment at shift {n + 1} exceeds the power {n}")
    for s in range(n, -1, -1):
        if ideal_contains(ideal_power(base, s, generator_cap), candidate):
            return s
    raise InvariantViolationError("containment failed even in the unit ideal")


def uniform_exponents(
    ideal: MonomialIdeal,
    n_max: int,
    generator_cap: int = DEFAULT_GENERATOR_CAP,
    box_point_cap: int = DEFAULT_BOX_POINT_CAP,
) -> UniformExponentReport:
    """Measure s_bar(n), s_closure(n) for 1 <= n <= n_max and their gaps.

    Where closure(J^n) equals closure(J)^n, the two shifts are one search.
    No power of J above n_max is built."""
    if n_max < 1:
        raise PreconditionError(f"n_max must be >= 1, got {n_max}")
    if ideal.is_zero or ideal.is_unit:
        raise PreconditionError("the ideal must be proper and nonzero")
    closed = closure(ideal, box_point_cap, n=1)
    rows = []
    for n in range(1, n_max + 1):
        power_of_closure = ideal_power(closed, n, generator_cap)
        closure_of_power = closure(ideal, box_point_cap, n=n)
        s_bar = _max_contained_power(ideal, power_of_closure, n, generator_cap)
        if closure_of_power == power_of_closure:
            s_closure = s_bar
        else:
            s_closure = _max_contained_power(ideal, closure_of_power, n, generator_cap)
        rows.append(ExponentRow(n, s_bar, s_closure))
    k_bar = max(row.n - row.s_bar for row in rows)
    k_cl = max(row.n - row.s_closure for row in rows)
    return UniformExponentReport(ideal, n_max, tuple(rows), k_bar, k_cl)


@dataclass(frozen=True)
class WitnessPair:
    """The lower-bound family: J = (x_1^d, ..., x_d^d) together with
    I = J + (x_1^(d-1) x_d, ..., x_(d-1)^(d-1) x_d)."""

    d: int
    j_ideal: MonomialIdeal
    i_ideal: MonomialIdeal


def witness_pair(d: int) -> WitnessPair:
    if d < 2:
        raise PreconditionError(f"the witness family needs d >= 2, got {d}")
    axis_powers = [
        tuple(d if j == i else 0 for j in range(d)) for i in range(d)
    ]
    extras = [
        tuple((d - 1 if j == i else 0) + (1 if j == d - 1 else 0) for j in range(d))
        for i in range(d - 1)
    ]
    j_ideal = minimalize(d, axis_powers)
    i_ideal = ideal_sum(j_ideal, minimalize(d, extras))
    return WitnessPair(d, j_ideal, i_ideal)


@dataclass(frozen=True)
class WitnessVerdict:
    """Outcome of the three exact checks on a witness pair."""

    d: int
    pair: WitnessPair
    integral: bool
    diagonal: tuple
    diagonal_outside: bool
    power_not_contained: bool

    @property
    def passed(self) -> bool:
        return self.integral and self.diagonal_outside and self.power_not_contained


def verify_witness(d: int) -> WitnessVerdict:
    """Check the facts forcing a uniform exponent of at least d - 1:

    (a) I is integral over J;
    (b) the product of the d - 1 mixed generators is the full diagonal
        monomial (x_1 ... x_d)^(d-1), which is not in J;
    (c) hence I^(d-1) is not contained in J: the product in (b) is one of
        d - 1 generators of I, so it lies in I^(d-1). No power is built.
    """
    pair = witness_pair(d)
    integral = is_integral_ideal(pair.j_ideal, pair.i_ideal).is_yes
    cited = [g for g in pair.i_ideal.gens if g not in pair.j_ideal.gens]
    product = (0,) * d
    for g in cited:
        product = vector_sum(product, g)
    diagonal = (d - 1,) * d
    if product != diagonal:
        raise InvariantViolationError(
            f"mixed-generator product {product} is not the diagonal {diagonal}"
        )
    diagonal_outside = not contains_monomial(pair.j_ideal, diagonal)
    power_not_contained = len(cited) == d - 1 and diagonal_outside
    return WitnessVerdict(d, pair, integral, diagonal, diagonal_outside, power_not_contained)


@dataclass(frozen=True)
class ContainmentRow:
    n: int
    holds: bool


@dataclass(frozen=True)
class ShiftedContainmentReport:
    ideal: MonomialIdeal
    n_max: int
    rows: tuple[ContainmentRow, ...]

    @property
    def ok(self) -> bool:
        return all(row.holds for row in self.rows)


def lipman_sathaye_check(
    ideal: MonomialIdeal,
    n_max: int,
    generator_cap: int = DEFAULT_GENERATOR_CAP,
    box_point_cap: int = DEFAULT_BOX_POINT_CAP,
) -> ShiftedContainmentReport:
    """Verify closure(J^n) inside J^(n-d+1) for d-1 <= n <= n_max.

    The ambient polynomial ring is regular of dimension d, so every row is
    expected to hold; a False row would be an implementation bug surfaced,
    not a mathematical discovery.
    """
    if ideal.is_zero or ideal.is_unit:
        raise PreconditionError("the ideal must be proper and nonzero")
    d = ideal.dim
    rows = []
    for n in range(max(d - 1, 1), n_max + 1):
        closed = closure(ideal, box_point_cap, n=n)
        target = ideal_power(ideal, max(n - d + 1, 0), generator_cap)
        rows.append(ContainmentRow(n, ideal_contains(target, closed)))
    return ShiftedContainmentReport(ideal, n_max, tuple(rows))


def chain_check(
    ideal: MonomialIdeal,
    n_max: int,
    generator_cap: int = DEFAULT_GENERATOR_CAP,
    box_point_cap: int = DEFAULT_BOX_POINT_CAP,
) -> bool:
    """Verify J^n inside closure(J)^n inside closure(J^n) for 1 <= n <= n_max."""
    if n_max < 1:
        raise PreconditionError(f"n_max must be >= 1, got {n_max}")
    if ideal.is_zero:
        return True  # all three ideals are zero
    closed = closure(ideal, box_point_cap, n=1)
    for n in range(1, n_max + 1):
        plain_power = ideal_power(ideal, n, generator_cap)
        closure_power = ideal_power(closed, n, generator_cap)
        closed_power = closure(ideal, box_point_cap, n=n)
        if not ideal_contains(closure_power, plain_power):
            return False
        if not ideal_contains(closed_power, closure_power):
            return False
    return True


def nilpotent_lift_bound(k: int, artin_rees_constants: list[int] | tuple[int, ...]) -> int:
    """The uniform exponent (n0 + 1) * k + k_1 + ... + k_n0 induced on a ring
    whose reduction has exponent k and whose nilpotent filtration satisfies
    the given uniform constants."""
    constants = list(artin_rees_constants)
    if k < 0 or any(c < 0 for c in constants):
        raise PreconditionError("the exponent and all constants must be >= 0")
    return (len(constants) + 1) * k + sum(constants)


# -- sampling and the randomized suite ---------------------------------------


def random_monomial_ideal(
    rng: random.Random,
    dim: int,
    min_gens: int = 2,
    max_gens: int = 5,
    max_exp: int = 6,
) -> MonomialIdeal:
    """A random proper nonzero monomial ideal; unit draws are rejected."""
    while True:
        count = rng.randint(min_gens, max_gens)
        vectors = [
            tuple(rng.randint(0, max_exp) for _ in range(dim)) for _ in range(count)
        ]
        ideal = minimalize(dim, vectors)
        if not ideal.is_unit and not ideal.is_zero:
            return ideal


@dataclass(frozen=True)
class TrialResult:
    index: int
    dim: int
    ideal: MonomialIdeal
    chain_ok: bool
    shifted_ok: bool
    k_bar: int
    k_cl: int
    bound_ok: bool
    integrality_agree: bool

    @property
    def ok(self) -> bool:
        return (
            self.chain_ok and self.shifted_ok and self.bound_ok and self.integrality_agree
        )


@dataclass(frozen=True)
class SuiteReport:
    seed: int
    trials: int
    n_max: int
    results: tuple[TrialResult, ...]

    @property
    def failures(self) -> int:
        return sum(1 for r in self.results if not r.ok)

    @property
    def ok(self) -> bool:
        return self.failures == 0


def sample_suite(
    trials: int,
    seed: int,
    n_max: int = 3,
    k_max: int = 10,
    generator_cap: int = DEFAULT_GENERATOR_CAP,
    box_point_cap: int = DEFAULT_BOX_POINT_CAP,
) -> SuiteReport:
    """Randomized property run over seeded ideals; the seed fixes everything.

    Each trial samples a proper monomial ideal, checks the containment chain
    and the shifted-containment bound, compares k_cl against dim - 1, and
    cross-checks the polyhedral integrality decision against reduction
    search on a sampled pair J inside I.
    """
    if trials < 1:
        raise PreconditionError(f"trials must be >= 1, got {trials}")
    rng = random.Random(seed)
    results = []
    for index in range(trials):
        dim = rng.choice((2, 3))
        ideal = random_monomial_ideal(rng, dim)
        chain_ok = chain_check(ideal, n_max, generator_cap, box_point_cap)
        shifted = lipman_sathaye_check(ideal, n_max, generator_cap, box_point_cap)
        report = uniform_exponents(ideal, n_max, generator_cap, box_point_cap)
        bound_ok = report.k_cl <= dim - 1
        extras = [
            tuple(rng.randint(0, 6) for _ in range(dim))
            for _ in range(rng.randint(0, 2))
        ]
        bigger = ideal_sum(ideal, minimalize(dim, extras)) if extras else ideal
        decided = is_integral_ideal(ideal, bigger)
        searched = reduction_number(ideal, bigger, k_max, generator_cap=generator_cap)
        integrality_agree = decided.is_yes == isinstance(searched, ReductionWitness)
        results.append(
            TrialResult(
                index,
                dim,
                ideal,
                chain_ok,
                shifted.ok,
                report.k_bar,
                report.k_cl,
                bound_ok,
                integrality_agree,
            )
        )
    return SuiteReport(seed, trials, n_max, tuple(results))
