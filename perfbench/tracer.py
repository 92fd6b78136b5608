"""Outside-in tracer: spans and counts at the library's layer boundaries.

The tracer wraps public functions of ``closure_lab`` from outside the
package and rebinds every module name that holds the same object, because
modules such as ``lab`` and ``integrality`` import ``closure``,
``ideal_power`` and ``poly_ideal_member`` by name. Two methods are wrapped
on their classes: ``NewtonPolyhedron.member`` and ``PolyIdeal.groebner``.

A span is (layer, parent span, start, end). Spans stay in flat in-memory
arrays while a pass runs and are reduced after it: a layer's self time is
its spans' total duration minus the duration of their direct child spans.
Cache hit shares come from ``cache_info()`` of the original ``lru_cache``
objects, which the benchmark clears before every pass.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from math import prod
from time import perf_counter_ns

from closure_lab import groebner, integrality, lab, monomials, newton, polynomials, simplex

# (layer, owner, attribute); the owner is a module or a class.
LAYERS = (
    ("simplex", simplex, "dominating_combination"),
    ("newton.closure", newton, "closure"),
    ("newton.member", newton.NewtonPolyhedron, "member"),
    ("monomials.ideal_product", monomials, "ideal_product"),
    ("monomials.ideal_contains", monomials, "ideal_contains"),
    ("polynomials.normal_form", polynomials, "normal_form"),
    ("groebner.buchberger", groebner, "buchberger"),
    ("groebner.groebner", groebner.PolyIdeal, "groebner"),
    ("groebner.poly_ideal_power", groebner, "poly_ideal_power"),
    ("groebner.poly_ideal_member", groebner, "poly_ideal_member"),
    ("integrality.reduction_number", integrality, "reduction_number"),
    ("integrality.monomial_certificate", integrality, "monomial_certificate"),
    ("integrality.cramer_certificate", integrality, "cramer_certificate"),
    ("integrality.bareiss_determinant", integrality, "bareiss_determinant"),
    ("lab.chain_check", lab, "chain_check"),
    ("lab.lipman_sathaye_check", lab, "lipman_sathaye_check"),
    ("lab.uniform_exponents", lab, "uniform_exponents"),
)
LAYER_NAMES = tuple(layer for layer, _, _ in LAYERS)

# The original lru_cache objects, read and cleared whether or not the
# tracer is installed.
CLOSURE_CACHE = newton.closure
POWER_CACHE = monomials.ideal_power


def clear_caches() -> None:
    """Empty every lru_cache of the library, as a fresh interpreter has them."""
    for name, module in list(sys.modules.items()):
        if name == "closure_lab" or name.startswith("closure_lab."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)) and hasattr(value, "cache_info"):
                    value.cache_clear()


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class Tracer:
    """Records spans and counts while installed; one instance per run."""

    def __init__(self):
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.closure_misses = 0
        self.pass_first_span = 0
        self._bindings: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        targets = {}
        for index, (layer, owner, attr) in enumerate(LAYERS):
            original = getattr(owner, attr)
            targets[id(original)] = (original, self._wrap(index, layer, original))
            if isinstance(owner, type):
                self._rebind(owner, attr, targets[id(original)][1])
        for name, module in list(sys.modules.items()):
            if name != "closure_lab" and not name.startswith("closure_lab."):
                continue
            for attr, value in list(vars(module).items()):
                entry = targets.get(id(value))
                if entry is not None and entry[0] is value:
                    self._rebind(module, attr, entry[1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._bindings):
            setattr(owner, attr, original)
        self._bindings.clear()

    def _rebind(self, owner, attr: str, wrapper) -> None:
        self._bindings.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, index: int, layer: str, fn):
        hook = _HOOKS.get(layer)
        layers, parents, starts, ends, stack = (
            self.layer, self.parent, self.start, self.end, self.stack
        )
        tracer = self

        def traced(*args, **kwargs):
            span = len(layers)
            layers.append(index)
            parents.append(stack[-1] if stack else -1)
            starts.append(0)
            ends.append(0)
            stack.append(span)
            starts[span] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = perf_counter_ns()
                stack.pop()
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    # -- passes -------------------------------------------------------------

    def begin_pass(self) -> None:
        self.counts = {}
        self.closure_misses = 0
        self.pass_first_span = len(self.layer)

    def end_pass(self) -> dict[str, float]:
        """Per-layer metrics of the pass that just ended."""
        first = self.pass_first_span
        total = len(self.layer)
        calls = [0] * len(LAYERS)
        incl = [0] * len(LAYERS)
        child = {}
        groebner_index = LAYER_NAMES.index("groebner.groebner")
        buchberger_index = LAYER_NAMES.index("groebner.buchberger")
        gb_misses = 0
        for span in range(first, total):
            index = self.layer[span]
            duration = self.end[span] - self.start[span]
            calls[index] += 1
            incl[index] += duration
            parent = self.parent[span]
            if parent >= 0:
                child[parent] = child.get(parent, 0) + duration
                if index == buchberger_index and self.layer[parent] == groebner_index:
                    gb_misses += 1
        self_ns = list(incl)
        for parent, duration in child.items():
            self_ns[self.layer[parent]] -= duration

        def n(layer):
            return calls[LAYER_NAMES.index(layer)]

        def self_s(layer):
            return self_ns[LAYER_NAMES.index(layer)] / 1e9

        def incl_s(layer):
            return incl[LAYER_NAMES.index(layer)] / 1e9

        c = self.counts.get
        closure_info = CLOSURE_CACHE.cache_info()
        power_info = POWER_CACHE.cache_info()
        metrics = {
            "simplex.calls": n("simplex"),
            "simplex.self_s": self_s("simplex"),
            "simplex.vertices_mean": _share(c("simplex.vertices", 0), n("simplex")),
            "simplex.infeasible_share": _share(c("simplex.infeasible", 0), n("simplex")),
            "newton.closure.calls": n("newton.closure"),
            "newton.closure.self_s": self_s("newton.closure"),
            "newton.closure.box_points": c("newton.closure.box_points", 0),
            "newton.closure.yield": _share(
                c("newton.closure.gens_out", 0), c("newton.closure.box_points", 0)
            ),
            "newton.closure.cache_hit_share": _share(
                closure_info.hits, closure_info.hits + closure_info.misses
            ),
            "newton.member.calls": n("newton.member"),
            "newton.member.self_s": self_s("newton.member"),
            "newton.member.simplex_share": _share(n("simplex"), n("newton.member")),
            "monomials.ideal_product.calls": n("monomials.ideal_product"),
            "monomials.ideal_product.self_s": self_s("monomials.ideal_product"),
            "monomials.ideal_product.pairs_in": c("monomials.ideal_product.pairs_in", 0),
            "monomials.ideal_product.yield": _share(
                c("monomials.ideal_product.gens_out", 0),
                c("monomials.ideal_product.pairs_in", 0),
            ),
            "monomials.ideal_power.cache_hit_share": _share(
                power_info.hits, power_info.hits + power_info.misses
            ),
            "monomials.ideal_contains.self_s": self_s("monomials.ideal_contains"),
            "polynomials.normal_form.calls": n("polynomials.normal_form"),
            "polynomials.normal_form.self_s": self_s("polynomials.normal_form"),
            "polynomials.normal_form.terms_in": c("polynomials.normal_form.terms_in", 0),
            "groebner.buchberger.calls": n("groebner.buchberger"),
            "groebner.buchberger.self_s": self_s("groebner.buchberger"),
            "groebner.buchberger.basis_out": c("groebner.buchberger.basis_out", 0),
            "groebner.gb_cache_hit_share": _share(
                n("groebner.groebner") - gb_misses, n("groebner.groebner")
            ),
            "groebner.poly_ideal_power.self_s": self_s("groebner.poly_ideal_power"),
            "groebner.poly_ideal_member.self_s": self_s("groebner.poly_ideal_member"),
            "integrality.reduction_number.calls": n("integrality.reduction_number"),
            "integrality.reduction_number.self_s": self_s("integrality.reduction_number"),
            "integrality.reduction_number.k_tried": c("integrality.reduction_number.k_tried", 0),
            "integrality.reduction_number.exhausted_share": _share(
                c("integrality.reduction_number.exhausted", 0), n("integrality.reduction_number")
            ),
            "integrality.monomial_certificate.self_s": self_s("integrality.monomial_certificate"),
            "integrality.monomial_certificate.degree_mean": _share(
                c("integrality.monomial_certificate.degree", 0),
                n("integrality.monomial_certificate"),
            ),
            "integrality.cramer_certificate.self_s": self_s("integrality.cramer_certificate"),
            "integrality.cramer_certificate.degree_mean": _share(
                c("integrality.cramer_certificate.degree", 0),
                n("integrality.cramer_certificate"),
            ),
            "integrality.bareiss_determinant.self_s": self_s("integrality.bareiss_determinant"),
            "lab.chain_check.incl_s": incl_s("lab.chain_check"),
            "lab.lipman_sathaye_check.incl_s": incl_s("lab.lipman_sathaye_check"),
            "lab.uniform_exponents.incl_s": incl_s("lab.uniform_exponents"),
        }
        return metrics

    def write_spans(self, path) -> int:
        """Write every recorded span as tab-separated text; returns the count."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tlayer\tparent\tstart_ns\tend_ns\n")
            for span in range(len(self.layer)):
                out.write(
                    f"{span}\t{LAYER_NAMES[self.layer[span]]}\t{self.parent[span]}"
                    f"\t{self.start[span]}\t{self.end[span]}\n"
                )
        return len(self.layer)


# -- counts taken from a call's arguments and result ----------------------------


def _simplex(tracer, args, kwargs, result):
    tracer._add("simplex.vertices", len(args[0]))
    if isinstance(result, simplex.Infeasible):
        tracer._add("simplex.infeasible", 1)


def _closure(tracer, args, kwargs, result):
    misses = CLOSURE_CACHE.cache_info().misses
    if misses == tracer.closure_misses:
        return  # answered from the cache: no box was scanned
    tracer.closure_misses = misses
    ideal = args[0]
    if ideal.gens:
        tracer._add(
            "newton.closure.box_points",
            prod(max(g[j] for g in ideal.gens) + 1 for j in range(ideal.dim)),
        )
        tracer._add("newton.closure.gens_out", len(result.gens))


def _ideal_product(tracer, args, kwargs, result):
    tracer._add("monomials.ideal_product.pairs_in", len(args[0].gens) * len(args[1].gens))
    tracer._add("monomials.ideal_product.gens_out", len(result.gens))


def _normal_form(tracer, args, kwargs, result):
    tracer._add("polynomials.normal_form.terms_in", len(args[0].terms))


def _buchberger(tracer, args, kwargs, result):
    tracer._add("groebner.buchberger.basis_out", len(result.basis))


def _reduction_number(tracer, args, kwargs, result):
    if isinstance(result, integrality.ReductionWitness):
        tracer._add("integrality.reduction_number.k_tried", result.k + 1)
    else:
        tracer._add("integrality.reduction_number.k_tried", result.k_max + 1)
        tracer._add("integrality.reduction_number.exhausted", 1)


def _degree(layer):
    def hook(tracer, args, kwargs, result):
        tracer._add(f"{layer}.degree", result.degree)

    return hook


_HOOKS = {
    "simplex": _simplex,
    "newton.closure": _closure,
    "monomials.ideal_product": _ideal_product,
    "polynomials.normal_form": _normal_form,
    "groebner.buchberger": _buchberger,
    "integrality.reduction_number": _reduction_number,
    "integrality.monomial_certificate": _degree("integrality.monomial_certificate"),
    "integrality.cramer_certificate": _degree("integrality.cramer_certificate"),
}
