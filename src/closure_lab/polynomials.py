"""Sparse multivariate polynomials over exact rationals, monomial orders,
and multivariate division with quotient tracking.

Coefficients are ``fractions.Fraction``; exponent vectors are integer tuples
as in :mod:`closure_lab.monomials`. Polynomials are immutable: operations
return fresh values, so sharing across threads is safe.

The public constructor validates its input: every exponent vector has the
ring's length and nonnegative integer entries, every coefficient becomes a
``Fraction``, and zero coefficients are dropped. Results of arithmetic are
built from terms that are already valid, so they skip that validation.
"""

from __future__ import annotations

from fractions import Fraction
from operator import neg
from typing import Iterable, Mapping

from .errors import DimensionMismatchError, PreconditionError
from .monomials import ExponentVector


class TermOrder:
    """A monomial order given by a sort key; larger keys are larger monomials."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        if name not in ("grevlex", "lex"):
            raise PreconditionError(f"unknown term order {name!r}")
        self.name = name

    def key(self, exps: ExponentVector):
        if self.name == "lex":
            return exps
        # grevlex: total degree first, then the last nonzero entry of the
        # difference decides with reversed sign.
        return (sum(exps), tuple(map(neg, reversed(exps))))

    def __repr__(self) -> str:
        return f"TermOrder({self.name!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, TermOrder) and self.name == other.name

    def __hash__(self) -> int:
        return hash(("TermOrder", self.name))


GREVLEX = TermOrder("grevlex")
LEX = TermOrder("lex")


def term_order(name: str) -> TermOrder:
    return TermOrder(name)


class Polynomial:
    """A sparse polynomial: a map from exponent vectors to nonzero rationals.

    ``Polynomial(dim, terms)`` checks and normalizes ``terms``; arithmetic
    results come from the private ``_trusted`` constructor, which stores a
    dict already known to be valid. Each caches its hash and last leading term.
    """

    __slots__ = ("dim", "terms", "_lead", "_hash")

    def __init__(self, dim: int, terms: Mapping[ExponentVector, Fraction] | None = None):
        if dim < 1:
            raise PreconditionError(f"ambient dimension must be >= 1, got {dim}")
        clean: dict[ExponentVector, Fraction] = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(map(int, exps))
            if len(exps) != dim:
                raise DimensionMismatchError(f"term has {len(exps)} exponents, expected {dim}")
            if min(exps) < 0:  # dim >= 1, so exps is not empty
                raise PreconditionError(f"negative exponent in term {exps}")
            coeff = Fraction(coeff)
            if coeff:
                clean[exps] = coeff
        self.dim = dim
        self.terms = clean
        self._lead = self._hash = None

    @classmethod
    def _trusted(cls, dim: int, terms: dict[ExponentVector, Fraction]) -> Polynomial:
        """Wrap ``terms`` without copying or checking it: the caller guarantees
        length-``dim`` tuples of nonnegative ints mapped to nonzero Fractions,
        and hands the dict over."""
        poly = object.__new__(cls)
        poly.dim = dim
        poly.terms = terms
        poly._lead = poly._hash = None
        return poly

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> Polynomial:
        return cls(dim)

    @classmethod
    def constant(cls, dim: int, value) -> Polynomial:
        return cls(dim, {(0,) * dim: Fraction(value)})

    @classmethod
    def one(cls, dim: int) -> Polynomial:
        return cls.constant(dim, 1)

    @classmethod
    def monomial(cls, dim: int, exps: ExponentVector, coeff=1) -> Polynomial:
        return cls(dim, {tuple(exps): Fraction(coeff)})

    @classmethod
    def variable(cls, dim: int, index: int) -> Polynomial:
        exps = tuple(1 if i == index else 0 for i in range(dim))
        return cls(dim, {exps: Fraction(1)})

    # -- predicates and views ----------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def is_monomial(self) -> bool:
        """True iff the polynomial is a single term (any nonzero coefficient)."""
        return len(self.terms) == 1

    def leading_term(self, order: TermOrder) -> tuple[ExponentVector, Fraction]:
        # One read of the (order, exps, coeff) slot: no thread sees a mix.
        cached = self._lead
        if cached is None or cached[0] != order:
            if self.is_zero:
                raise PreconditionError("the zero polynomial has no leading term")
            exps = max(self.terms, key=order.key)
            cached = self._lead = (order, exps, self.terms[exps])
        return cached[1:]

    def sorted_terms(self, order: TermOrder = GREVLEX) -> list[tuple[ExponentVector, Fraction]]:
        return [(e, self.terms[e]) for e in sorted(self.terms, key=order.key, reverse=True)]

    # -- arithmetic ----------------------------------------------------------

    def _check_dim(self, other: Polynomial) -> None:
        if self.dim != other.dim:
            raise DimensionMismatchError(
                f"polynomial dimensions differ: {self.dim} vs {other.dim}"
            )

    def __add__(self, other: Polynomial) -> Polynomial:
        self._check_dim(other)
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            if exps in terms:
                updated = terms[exps] + coeff
                if updated:
                    terms[exps] = updated
                else:
                    del terms[exps]
            else:
                terms[exps] = coeff
        return Polynomial._trusted(self.dim, terms)

    def __neg__(self) -> Polynomial:
        return Polynomial._trusted(self.dim, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: Polynomial) -> Polynomial:
        self._check_dim(other)
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            if exps in terms:
                updated = terms[exps] - coeff
                if updated:
                    terms[exps] = updated
                else:
                    del terms[exps]
            else:
                terms[exps] = -coeff
        return Polynomial._trusted(self.dim, terms)

    def __mul__(self, other) -> Polynomial:
        if isinstance(other, Polynomial):
            self._check_dim(other)
            terms: dict[ExponentVector, Fraction] = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    exps = tuple(a + b for a, b in zip(e1, e2))
                    if exps in terms:
                        updated = terms[exps] + c1 * c2
                        if updated:
                            terms[exps] = updated
                        else:
                            del terms[exps]
                    else:
                        terms[exps] = c1 * c2
            return Polynomial._trusted(self.dim, terms)
        return self.scale(other)

    __rmul__ = __mul__

    def scale(self, factor) -> Polynomial:
        factor = Fraction(factor)
        if not factor:
            return Polynomial.zero(self.dim)
        return Polynomial._trusted(self.dim, {e: c * factor for e, c in self.terms.items()})

    def __pow__(self, exponent: int) -> Polynomial:
        if exponent < 0:
            raise PreconditionError("polynomial powers must be nonnegative")
        result = Polynomial.one(self.dim)
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- equality ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.dim == other.dim and self.terms == other.terms

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = self._hash = hash((self.dim, frozenset(self.terms.items())))
        return cached

    def __repr__(self) -> str:
        if self.is_zero:
            return "Polynomial(0)"
        parts = [f"{coeff}*x^{exps}" for exps, coeff in self.sorted_terms()]
        return "Polynomial(" + " + ".join(parts) + ")"


def normal_form(
    f: Polynomial, divisors: Iterable[Polynomial], order: TermOrder
) -> tuple[Polynomial, list[Polynomial]]:
    """Multivariate division: f = sum(q_i * g_i) + r, exactly.

    No term of the remainder is divisible by any divisor's leading term, and
    the outcome is deterministic given the order and the divisor sequence:
    each step takes the leading term of what is left and cancels it with the
    first divisor whose leading term divides it, or moves it to the
    remainder. The dividend is reduced in one mutable term dict, and each
    exponent's order key is computed once per call.
    """
    divisors = list(divisors)
    leads = []
    for g in divisors:
        if g.dim != f.dim:
            raise DimensionMismatchError("divisor dimension differs from dividend")
        if g.is_zero:
            raise PreconditionError("divisors must be nonzero")
        leads.append(g.leading_term(order))
    keys = {exps: order.key(exps) for exps in f.terms}
    current = dict(f.terms)
    quotients: list[dict[ExponentVector, Fraction]] = [{} for _ in divisors]
    remainder: dict[ExponentVector, Fraction] = {}
    while current:
        exps = max(current, key=keys.__getitem__)
        coeff = current.pop(exps)
        for i, (lead_exps, lead_coeff) in enumerate(leads):
            if all(a <= b for a, b in zip(lead_exps, exps)):
                shift = tuple(b - a for a, b in zip(lead_exps, exps))
                factor = coeff / lead_coeff
                # Leading terms strictly decrease, so each shift occurs once.
                quotients[i][shift] = factor
                for term_exps, term_coeff in divisors[i].terms.items():
                    if term_exps == lead_exps:
                        continue  # cancels the leading term exactly
                    target = tuple(a + b for a, b in zip(term_exps, shift))
                    if target in current:
                        updated = current[target] - factor * term_coeff
                        if updated:
                            current[target] = updated
                        else:
                            del current[target]
                    else:
                        current[target] = -factor * term_coeff
                        if target not in keys:
                            keys[target] = order.key(target)
                break
        else:
            remainder[exps] = coeff
    return (
        Polynomial._trusted(f.dim, remainder),
        [Polynomial._trusted(f.dim, q) for q in quotients],
    )


def exact_quotient(numerator: Polynomial, denominator: Polynomial) -> Polynomial:
    """The quotient when the division is known to be exact; raises otherwise."""
    remainder, quotients = normal_form(numerator, [denominator], GREVLEX)
    if not remainder.is_zero:
        raise PreconditionError("division is not exact")
    return quotients[0]
