"""Arithmetic in the tower field L as a quotient algebra over K = k(x).

Elements are finite sums of monomials y_1^{mu_1} ... y_r^{mu_r} with RatFun
coefficients, kept in reduced form (each exponent below the step degree).
Valuations at tracked places use the strict-triangle minimum over terms.
"""

from __future__ import annotations

import functools
from itertools import product
from math import comb, prod

from .errors import (
    FieldMismatch,
    ParseError,
    UnsupportedAction,
    ValuationAmbiguous,
    ZeroArgument,
)
from .ff import FieldSpec
from .poly import Poly, RatFun, ratfun_valuation
from .places import Place


def _trim(exps) -> tuple:
    exps = list(exps)
    while exps and exps[-1] == 0:
        exps.pop()
    return tuple(exps)


class AlgebraElement:
    """Mapping from reduced exponent vectors to nonzero RatFun coefficients."""

    __slots__ = ("spec", "terms")

    def __init__(self, spec: FieldSpec, terms):
        self.spec = spec
        clean = {}
        for exps, coeff in dict(terms).items():
            if any(e < 0 for e in exps):
                raise ParseError("negative generator exponent")
            if not isinstance(coeff, RatFun):
                coeff = RatFun.constant(spec, coeff) if not isinstance(coeff, Poly) else RatFun(coeff)
            if coeff.spec != spec:
                raise FieldMismatch("coefficient over the wrong field")
            if coeff.is_zero():
                continue
            key = _trim(exps)
            if key in clean:
                merged = clean[key] + coeff
                if merged.is_zero():
                    del clean[key]
                else:
                    clean[key] = merged
            else:
                clean[key] = coeff
        self.terms = clean

    @staticmethod
    def zero(spec: FieldSpec) -> AlgebraElement:
        return AlgebraElement(spec, {})

    @staticmethod
    def from_ratfun(r: RatFun) -> AlgebraElement:
        return AlgebraElement(r.spec, {(): r})

    @staticmethod
    def monomial(spec: FieldSpec, exps, coeff=1) -> AlgebraElement:
        if isinstance(coeff, int):
            coeff = RatFun.constant(spec, coeff)
        elif isinstance(coeff, Poly):
            coeff = RatFun(coeff)
        return AlgebraElement(spec, {_trim(exps): coeff})

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def level(self) -> int:
        return max((len(e) for e in self.terms), default=0)

    def constant_part(self) -> RatFun:
        return self.terms.get((), RatFun.zero(self.spec))

    def __add__(self, other):
        other = self._coerce(other)
        merged = dict(self.terms)
        out = AlgebraElement(self.spec, merged)
        for exps, coeff in other.terms.items():
            cur = out.terms.get(exps)
            s = coeff if cur is None else cur + coeff
            if s.is_zero():
                out.terms.pop(exps, None)
            else:
                out.terms[exps] = s
        return out

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return AlgebraElement(self.spec, {e: -c for e, c in self.terms.items()})

    def scale(self, r) -> AlgebraElement:
        """Multiply by an element of K (no reduction needed)."""
        if isinstance(r, (int, Poly)):
            r = RatFun.constant(self.spec, r) if isinstance(r, int) else RatFun(r)
        if r.is_zero():
            return AlgebraElement.zero(self.spec)
        return AlgebraElement(self.spec, {e: c * r for e, c in self.terms.items()})

    def _coerce(self, other) -> AlgebraElement:
        if isinstance(other, AlgebraElement):
            if other.spec != self.spec:
                raise FieldMismatch("algebra elements over different fields")
            return other
        if isinstance(other, (int, Poly, RatFun)):
            if isinstance(other, int):
                other = RatFun.constant(self.spec, other)
            elif isinstance(other, Poly):
                other = RatFun(other)
            return AlgebraElement.from_ratfun(other)
        raise ParseError(f"cannot coerce {other!r} into the tower algebra")

    def __eq__(self, other):
        try:
            other = self._coerce(other)
        except (ParseError, FieldMismatch):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash((self.spec, frozenset(self.terms.items())))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0])

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for exps, coeff in self.sorted_terms():
            mono = "*".join(
                f"y{i + 1}^{e}" if e > 1 else f"y{i + 1}" for i, e in enumerate(exps) if e
            )
            parts.append(f"({coeff})" + (f"*{mono}" if mono else ""))
        return " + ".join(parts)


def _step_bound(step) -> int:
    return step.n if step.kind == "kummer" else step.p


def reduce_terms(steps, spec: FieldSpec, raw_terms) -> AlgebraElement:
    """Rewrites y_i^{n_i} -> c_i and y_i^p -> y_i + c_i until all exponents are reduced."""
    work = [(tuple(e), c) for e, c in raw_terms]
    out: dict[tuple, RatFun] = {}
    while work:
        exps, coeff = work.pop()
        if coeff.is_zero():
            continue
        hot = None
        for i in range(len(exps) - 1, -1, -1):
            if i < len(steps) and exps[i] >= _step_bound(steps[i]):
                hot = i
                break
            if i >= len(steps) and exps[i] > 0:
                raise ParseError("exponent beyond the tower height")
        if hot is None:
            key = _trim(exps)
            cur = out.get(key)
            s = coeff if cur is None else cur + coeff
            if s.is_zero():
                out.pop(key, None)
            else:
                out[key] = s
            continue
        step = steps[hot]
        bound = _step_bound(step)
        base = list(exps)
        base[hot] -= bound
        replacement = step.c_algebra(spec)
        if step.kind != "kummer":
            y_i = AlgebraElement.monomial(spec, [0] * hot + [1])
            replacement = replacement + y_i
        for e2, c2 in replacement.terms.items():
            merged = list(base)
            for j, e in enumerate(e2):
                if j >= len(merged):
                    merged.extend([0] * (j + 1 - len(merged)))
                merged[j] += e
            work.append((tuple(merged), coeff * c2))
    return AlgebraElement(spec, out)


def alg_mul(steps, a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    raw = []
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            n = max(len(e1), len(e2))
            merged = tuple(
                (e1[i] if i < len(e1) else 0) + (e2[i] if i < len(e2) else 0)
                for i in range(n)
            )
            raw.append((merged, c1 * c2))
    return reduce_terms(steps, a.spec, raw)


def alg_pow(steps, a: AlgebraElement, n: int) -> AlgebraElement:
    if n < 0:
        raise ParseError("negative powers are not defined in the quotient algebra")
    result = AlgebraElement.from_ratfun(RatFun.one(a.spec))
    base = a
    while n:
        if n & 1:
            result = alg_mul(steps, result, base)
        base = alg_mul(steps, base, base)
        n >>= 1
    return result


class LevelData:
    """Ramification data of one tower step above a fixed K-place."""

    __slots__ = ("kind", "n", "e_step", "weight", "v_level", "jump")

    def __init__(self, kind, n, e_step, weight, v_level, jump):
        self.kind = kind
        self.n = n  # n_i for Kummer, p for Artin-Schreier
        self.e_step = e_step
        self.weight = weight  # v(y_i) in the final normalization of the chain
        self.v_level = v_level  # v_{p_i}(y_i) in the level-i normalization
        self.jump = jump

    @property
    def ramified(self) -> bool:
        return self.e_step > 1

    @property
    def wild(self) -> bool:
        return self.ramified and self.kind == "artin_schreier"

    @property
    def tame(self) -> bool:
        return self.ramified and self.kind == "kummer"


class TrackedPlace:
    """A K-place with the ramification chain of one place above it per level."""

    __slots__ = ("base", "levels", "e_total")

    def __init__(self, base: Place, levels, e_total: int):
        self.base = base
        self.levels = list(levels)
        self.e_total = e_total

    @property
    def ramified(self) -> bool:
        return self.e_total > 1

    def e_above(self, i: int) -> int:
        """e(P | p_i): product of the step indices strictly above level i."""
        out = 1
        for lv in self.levels[i + 1 :]:
            out *= lv.e_step
        return out

    @property
    def different_exponent(self) -> int:
        total = 0
        for i, lv in enumerate(self.levels):
            if lv.ramified:
                total += self.e_above(i) * (lv.e_step - 1) * lv.jump
        return total

    def __repr__(self):
        return f"TrackedPlace({self.base}, e={self.e_total})"


def valuation(a: AlgebraElement, tp: TrackedPlace) -> int:
    """min over terms of sum(mu_i * v(y_i)) + e * v(coefficient).

    The minimum over the places above the base place is certified by the
    invertibility of the Galois transition matrices; a residual tie inside
    one ramification class is reported, not guessed.
    """
    if a.is_zero():
        raise ZeroArgument("valuation of zero is +infinity")
    best = None
    per_term = []
    for exps, coeff in a.terms.items():
        v = tp.e_total * ratfun_valuation(coeff, tp.base)
        for i, e in enumerate(exps):
            if e and i < len(tp.levels):
                v += e * tp.levels[i].weight
        per_term.append((exps, v))
        if best is None or v < best:
            best = v
    winners = [exps for exps, v in per_term if v == best]
    if len(winners) > 1:
        seen = {}
        for exps in winners:
            key = tuple(
                (exps[i] if i < len(exps) else 0) % lv.e_step
                for i, lv in enumerate(tp.levels)
                if lv.ramified
            )
            if key in seen:
                raise ValuationAmbiguous([seen[key], exps])
            seen[key] = exps
    return best


def differential_valuation(elem: AlgebraElement, tp: TrackedPlace) -> int:
    """Valuation of elem * dx at the tracked place."""
    v = valuation(elem, tp)
    if tp.base.is_infinite:
        # infinity is unramified in every validated tower
        return v - 2 * tp.e_total
    if tp.ramified:
        return v + tp.different_exponent
    return v


def monomial_images(d, h):
    """mu -> {mu2: c}: sigma(y^mu) = sum of c y^mu2 for sigma = sigma_1^{h_1}...sigma_r^{h_r}.

    Kummer generators scale, y_i -> zeta^{h_i} y_i; Artin-Schreier ones
    shift, y_i -> y_i + h_i. Requires each moved level to be absent from
    every defining element c_j: then sigma fixes every c_j, so it preserves
    the relations and acts on each y_i alone. The image of a monomial is
    therefore the closed form

        sigma(y^mu) = prod_{Kummer i} zeta^{h_i mu_i} y_i^{mu_i}
                      * prod_{Artin-Schreier i} sum_k C(mu_i, k) h_i^{mu_i - k} y_i^k

    with constants c in F_q (C(mu_i, k) mod p), each mu2 as long as mu and
    reduced when mu is (k <= mu_i). Level powers and monomial images are
    cached; callers share the returned dicts and must not change them.
    """
    steps = d.steps
    spec = d.field
    h = list(h) + [0] * (len(steps) - len(h))
    if len(h) > len(steps):
        raise ParseError("group element longer than the tower")
    for i, hi in enumerate(h):
        if hi % _step_bound(steps[i]) == 0:
            continue
        for j, step in enumerate(steps):
            c = step.c_algebra(spec)
            if any(i < len(exps) and exps[i] for exps in c.terms):
                raise UnsupportedAction(
                    f"defining element of step {j + 1} involves the moved generator y{i + 1}"
                )
    p = spec.p
    # per level: the Kummer scale zeta^{h_i} in F_q, or the shift h_i in F_p
    moves = []
    for i, step in enumerate(steps):
        hi = h[i] % _step_bound(step)
        moves.append(spec.nth_root_of_unity(step.n) ** hi if step.kind == "kummer" else hi)

    @functools.cache
    def image_of_power(i: int, e: int):
        """[(k, c)] with sigma(y_i^e) = sum of c y_i^k, zero terms dropped."""
        if steps[i].kind == "kummer":
            return [(e, moves[i] ** e)]
        binomial = ((k, comb(e, k) * pow(moves[i], e - k, p) % p) for k in range(e + 1))
        return [(k, spec.element(c)) for k, c in binomial if c]

    @functools.cache
    def image(mu: tuple) -> dict:
        if len(mu) > len(steps):
            raise ParseError("exponent beyond the tower height")
        return {
            tuple(k for k, _ in choice): prod((c for _, c in choice), start=spec.one())
            for choice in product(*(image_of_power(i, e) for i, e in enumerate(mu)))
        }

    return image


def apply_automorphism(d, a: AlgebraElement, h) -> AlgebraElement:
    """Image of a under sigma_1^{h_1}...sigma_r^{h_r}: monomial_images, then reduce_terms."""
    image = monomial_images(d, h)
    raw = [
        (exps2, coeff * RatFun.constant(d.field, c))
        for exps, coeff in a.terms.items()
        for exps2, c in image(exps).items()
    ]
    return reduce_terms(d.steps, d.field, raw)
