"""Exact arithmetic on monomials and monomial ideals.

A monomial x^a is identified with its exponent vector a, a tuple of
nonnegative integers whose length is the ambient variable count. A monomial
ideal is identified with the antichain of its minimal generators under
componentwise <=; the zero ideal is the empty antichain and the unit ideal
is the single all-zeros vector.

Divisor search runs on a coordinate trie: nested dicts keyed by the last
exponent, then the one before it, and so on down to the first, with one
root-to-leaf path per stored vector. A vector g divides m exactly when
g_j <= m_j at every coordinate, so a query descends only into children whose
key is at most the query's coordinate at that depth. The root is keyed by
the last exponent because minimalization stores vectors in ascending
lexicographic order: every stored first exponent is at most the query's, so
a root keyed by it would prune nothing. A trie is built locally by the call
that searches it.

All values are immutable and every operation is a pure function of its
inputs, so everything here is safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import add
from typing import Iterable, Sequence

from .config import DEFAULT_GENERATOR_CAP
from .errors import DimensionMismatchError, InstanceTooLargeError, PreconditionError

ExponentVector = tuple  # concretely tuple[int, ...]; length = ambient dimension


def as_exponent_vector(coords: Iterable[int], dim: int) -> ExponentVector:
    """Validate and freeze an exponent vector of the given ambient dimension."""
    vec = tuple(int(c) for c in coords)
    if len(vec) != dim:
        raise DimensionMismatchError(f"expected {dim} exponents, got {len(vec)}")
    if any(c < 0 for c in vec):
        raise PreconditionError(f"exponents must be nonnegative, got {vec}")
    return vec


def divides(g: ExponentVector, m: ExponentVector) -> bool:
    """True iff x^g divides x^m, i.e. g <= m componentwise."""
    return all(a <= b for a, b in zip(g, m))


def vector_sum(a: ExponentVector, b: ExponentVector) -> ExponentVector:
    return tuple(map(add, a, b))


def _trie_insert(trie: dict, v: ExponentVector) -> None:
    """Store v in the trie, last coordinate at the root (module docstring)."""
    node = trie
    for c in reversed(v):
        node = node.setdefault(c, {})


def _trie_has_divisor(trie: dict, m: ExponentVector) -> bool:
    """True iff some vector stored in the trie divides m; every stored vector
    has m's length. Walks the trie one depth at a time, keeping every node
    whose path so far is <= m's coordinates."""
    level = [trie]
    for c in reversed(m):
        level = [child for node in level for key, child in node.items() if key <= c]
        if not level:
            return False
    return True


def _minimal_vectors(vectors: Iterable[ExponentVector]) -> list[ExponentVector]:
    """The <=-minimal elements of a set of vectors, deduplicated, in ascending
    lexicographic order.

    A proper divisor g of v is lexicographically smaller than v (at the first
    coordinate where they differ, g's is smaller), so after sorting, a vector
    can only be divided by an earlier one, and since divisibility is
    transitive, by an earlier survivor. One forward pass that asks a trie of
    the survivors for a divisor therefore suffices.
    """
    trie: dict = {}
    kept: list[ExponentVector] = []
    for v in sorted(set(vectors)):
        if not _trie_has_divisor(trie, v):
            kept.append(v)
            _trie_insert(trie, v)
    return kept


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal, canonically represented by its minimal generators.

    The constructor accepts any generating set: it validates dimensions,
    deduplicates, drops non-minimal generators and stores the antichain in
    descending lexicographic order, so equal ideals compare equal.
    """

    dim: int
    gens: tuple[ExponentVector, ...]

    def __post_init__(self):
        if self.dim < 1:
            raise PreconditionError(f"ambient dimension must be >= 1, got {self.dim}")
        vecs = [as_exponent_vector(v, self.dim) for v in self.gens]
        object.__setattr__(self, "gens", tuple(reversed(_minimal_vectors(vecs))))

    @classmethod
    def _from_valid(cls, dim: int, vectors: Iterable[ExponentVector]) -> MonomialIdeal:
        """The ideal generated by ``vectors``, minimalized without checking
        them: the caller guarantees tuples of ``dim`` nonnegative ints."""
        ideal = object.__new__(cls)
        object.__setattr__(ideal, "dim", dim)
        object.__setattr__(ideal, "gens", tuple(reversed(_minimal_vectors(vectors))))
        return ideal

    @classmethod
    def _from_minimal(cls, dim: int, ascending: Sequence[ExponentVector]) -> MonomialIdeal:
        """The ideal whose minimal generators are ``ascending``, stored as
        given: the caller guarantees an antichain of tuples of ``dim``
        nonnegative ints in ascending lexicographic order."""
        ideal = object.__new__(cls)
        object.__setattr__(ideal, "dim", dim)
        object.__setattr__(ideal, "gens", tuple(reversed(ascending)))
        return ideal

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return len(self.gens) == 1 and not any(self.gens[0])

    def __str__(self) -> str:
        if self.is_zero:
            return "(0)"
        return "(" + ", ".join(str(g) for g in self.gens) + ")"


def zero_ideal(dim: int) -> MonomialIdeal:
    return MonomialIdeal(dim, ())


def unit_ideal(dim: int) -> MonomialIdeal:
    return MonomialIdeal(dim, ((0,) * dim,))


def minimalize(dim: int, vectors: Iterable[ExponentVector]) -> MonomialIdeal:
    """The ideal generated by ``vectors``, reduced to its minimal antichain."""
    return MonomialIdeal(dim, tuple(tuple(v) for v in vectors))


def _check_same_dim(a: MonomialIdeal, b: MonomialIdeal) -> None:
    if a.dim != b.dim:
        raise DimensionMismatchError(f"ideal dimensions differ: {a.dim} vs {b.dim}")


def contains_monomial(ideal: MonomialIdeal, m: ExponentVector) -> bool:
    """True iff x^m lies in the ideal, i.e. some generator divides m."""
    m = as_exponent_vector(m, ideal.dim)
    return any(divides(g, m) for g in ideal.gens)


def ideal_sum(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    _check_same_dim(a, b)
    return MonomialIdeal._from_valid(a.dim, a.gens + b.gens)


def ideal_product(
    a: MonomialIdeal, b: MonomialIdeal, generator_cap: int = DEFAULT_GENERATOR_CAP
) -> MonomialIdeal:
    """The product ideal, minimalized; the cap bounds the minimalized size."""
    _check_same_dim(a, b)
    if a.is_zero or b.is_zero:
        return zero_ideal(a.dim)
    pairwise = {vector_sum(g, h) for g in a.gens for h in b.gens}
    result = MonomialIdeal._from_valid(a.dim, pairwise)
    if len(result.gens) > generator_cap:
        raise InstanceTooLargeError(
            f"product has {len(result.gens)} minimal generators, cap is {generator_cap}"
            " (generator_cap)"
        )
    return result


@lru_cache(maxsize=4096)
def ideal_power(
    a: MonomialIdeal, n: int, generator_cap: int = DEFAULT_GENERATOR_CAP
) -> MonomialIdeal:
    """The n-th power, with A^0 the unit ideal: A^n = A^(n-h) * A^h through
    this cache, h the largest power of two below n. With both factors cached,
    as in an ascending run, it costs one product; cold, the O(log n) products
    of binary powering, O(log n) calls deep. ``generator_cap`` bounds each
    power built and is part of the key, so no cache state changes a verdict.
    """
    if n < 0:
        raise PreconditionError(f"exponent must be nonnegative, got {n}")
    if n <= 1:
        return a if n else unit_ideal(a.dim)
    h = 1 << ((n - 1).bit_length() - 1)
    return ideal_product(
        ideal_power(a, n - h, generator_cap), ideal_power(a, h, generator_cap), generator_cap
    )


def ideal_contains(a: MonomialIdeal, b: MonomialIdeal) -> bool:
    """True iff b is a subideal of a (every generator of b lies in a). Equal
    generator tuples are equal ideals, and answer with no trie built."""
    _check_same_dim(a, b)
    if a.gens == b.gens:
        return True
    trie: dict = {}
    for g in a.gens:
        _trie_insert(trie, g)
    return all(_trie_has_divisor(trie, g) for g in b.gens)
