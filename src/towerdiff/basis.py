"""Enumeration of the holomorphic differential basis x^nu g_mu(x)^{-1} y^mu dx.

The per-place invariants (delta, lambda, rho) and the global bound t^mu are
computed in exact rational arithmetic; t^mu must come out integral, anything
else aborts as an internal inconsistency.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .algebra import AlgebraElement, TrackedPlace
from .errors import InvariantViolation, NonIntegralInvariant, ParseError
from .poly import Poly, RatFun, ratfun_valuation
from .places import Place
from .tower import TowerDescriptor, analyze, tracked_place


def delta(tp: TrackedPlace, i: int, mu_i: int) -> int:
    """Per-level ramification contribution of exponent mu_i at the tracked place."""
    lv = tp.levels[i]
    if lv.wild:
        p = lv.n
        return (p - 1 - mu_i) * (-lv.v_level) + (p - 1)
    if lv.tame:
        return mu_i * lv.v_level + (lv.e_step - 1)
    return 0


def lambda_rho(tp: TrackedPlace, mu) -> tuple[int, int]:
    """Euclidean division of the weighted delta sum by the full index e_P."""
    total = 0
    for i in range(len(tp.levels)):
        mu_i = mu[i] if i < len(mu) else 0
        total += tp.e_above(i) * delta(tp, i, mu_i)
    return divmod(total, tp.e_total)


def t_mu(profile: dict, mu) -> int:
    """The pole-degree bound t^mu, summed over ramified K-places."""
    total = Fraction(0)
    for P, tp in profile.items():
        lam, _ = lambda_rho(tp, mu)
        inner = Fraction(lam)
        for i, lv in enumerate(tp.levels):
            if lv.tame:
                mu_i = mu[i] if i < len(mu) else 0
                inner -= Fraction(tp.e_above(i) * lv.v_level * mu_i, tp.e_total)
        total += P.degree * inner
    if total.denominator != 1:
        raise NonIntegralInvariant(f"t^mu not integral for mu={tuple(mu)}: {total}")
    t = int(total)
    if t < 0:
        raise NonIntegralInvariant(f"negative t^mu for mu={tuple(mu)}: {t}")
    return t


def gamma_indices(d: TowerDescriptor):
    """All exponent vectors of the index set: the full box minus the excluded corner."""
    bounds = [s.degree for s in d.steps]
    excluded = tuple(
        0 if s.kind == "kummer" else s.degree - 1 for s in d.steps
    )
    for mu in product(*(range(b) for b in bounds)):
        if mu != excluded:
            yield mu


class BasisElement:
    """x^nu g^{-1} y^mu dx with g kept in factored form (place, exponent)."""

    __slots__ = ("nu", "mu", "g_factors")

    def __init__(self, nu: int, mu, g_factors):
        self.nu = nu
        self.mu = tuple(mu)
        self.g_factors = tuple(sorted(g_factors, key=lambda fe: fe[0].sort_key()))

    def g_poly(self, spec) -> Poly:
        out = Poly.one(spec)
        for P, e in self.g_factors:
            out = out * P.poly**e
        return out

    def coefficient(self, spec) -> RatFun:
        return RatFun(Poly.x(spec) ** self.nu, self.g_poly(spec))

    def to_algebra(self, spec) -> AlgebraElement:
        return AlgebraElement.monomial(spec, self.mu, self.coefficient(spec))

    def key(self):
        return (self.mu, self.nu)

    def __eq__(self, other):
        return (
            isinstance(other, BasisElement)
            and self.nu == other.nu
            and self.mu == other.mu
            and self.g_factors == other.g_factors
        )

    def __hash__(self):
        return hash((self.nu, self.mu, self.g_factors))

    def pretty(self) -> str:
        mono = "*".join(
            f"y{i + 1}^{e}" if e > 1 else f"y{i + 1}" for i, e in enumerate(self.mu) if e
        )
        den = "*".join(
            f"({P.poly})^{e}" if e > 1 else f"({P.poly})" for P, e in self.g_factors
        )
        num = f"x^{self.nu}" if self.nu > 1 else ("x" if self.nu == 1 else "")
        head = "*".join(s for s in (num, mono) if s) or "1"
        return f"{head}/({den}) dx" if den else f"{head} dx"

    def __repr__(self):
        return f"BasisElement({self.pretty()})"


def invariant_table(d: TowerDescriptor, profile: dict | None = None):
    """(profile, {mu: t^mu}) over the whole exponent box including the excluded corner."""
    if profile is None:
        profile = analyze(d)
    bounds = [s.degree for s in d.steps]
    table = {}
    for mu in product(*(range(b) for b in bounds)):
        table[mu] = t_mu(profile, mu)
    return profile, table


def enumerate_basis(d: TowerDescriptor, profile: dict | None = None):
    """All basis differentials, ordered by mu lexicographically, then nu."""
    if profile is None:
        profile = analyze(d)
    out = []
    for mu in sorted(gamma_indices(d)):
        t = t_mu(profile, mu)
        if t < 1:
            raise InvariantViolation(
                f"t^mu = {t} < 1 inside the admissible index set at mu={mu}"
            )
        g_factors = []
        for P in sorted(profile, key=lambda P: P.sort_key()):
            if P.is_infinite:
                continue
            lam, _ = lambda_rho(profile[P], mu)
            if lam > 0:
                g_factors.append((P, lam))
        for nu in range(t - 1):
            out.append(BasisElement(nu, mu, g_factors))
    return out


def monomial_differential_valuation(tp: TrackedPlace, b: BasisElement) -> int:
    """Valuation of x^nu g^{-1} y^mu dx at the tracked place, from the factors.

    Single-monomial elements need no minimum-over-terms: the coefficient
    valuation reads off the factored denominator directly.
    """
    if tp.base.is_infinite:
        v_coeff = sum(e * P.degree for P, e in b.g_factors) - b.nu
    else:
        v_coeff = -dict(b.g_factors).get(tp.base, 0)
        if b.nu > 0 and tp.base.poly.degree == 1 and tp.base.poly.coeffs[0].is_zero():
            v_coeff += b.nu
    v = tp.e_total * v_coeff
    for i, e in enumerate(b.mu):
        if e and i < len(tp.levels):
            v += e * tp.levels[i].weight
    if tp.base.is_infinite:
        return v - 2 * tp.e_total
    return v + tp.different_exponent


def holomorphy_check(d: TowerDescriptor, b: BasisElement, profile: dict | None = None) -> bool:
    """Independent oracle: nonnegative differential valuation everywhere it matters.

    Checks every ramified tracked place, every place in the support of the
    coefficient, and infinity; never consults t^mu. profile may map further
    places to their tracked chains: places already in it are not walked again,
    so a caller checking many elements can walk infinity and (x) once.
    """
    if profile is None:
        profile = analyze(d)
    spec = d.field
    places = {P: tp for P, tp in profile.items()}
    support = [P for P, _ in b.g_factors]
    if b.nu > 0:
        support.append(Place(spec, Poly.x(spec)))
    support.append(Place.infinite(spec))
    for P in support:
        if P not in places:
            places[P] = tracked_place(d, P)
    for P, tp in places.items():
        if monomial_differential_valuation(tp, b) < 0:
            return False
    return True


def _single_step(d: TowerDescriptor) -> None:
    if d.r != 1:
        raise ParseError("single-step enumerator applied to a taller tower")


def enumerate_basis_single_as(d: TowerDescriptor):
    """One Artin-Schreier step: the direct pole-bound recipe.

    For y^p - y = g/prod p_i^{v_i} the count at exponent mu uses
    p*lambda_i + rho_i = (p - 1 - mu)*v_i + p - 1 per ramified place.
    """
    _single_step(d)
    step = d.steps[0]
    if step.kind != "artin_schreier":
        raise ParseError("expected an Artin-Schreier step")
    p = step.p
    profile = analyze(d)
    ram = sorted(
        (P for P in profile if not P.is_infinite), key=lambda P: P.sort_key()
    )
    vs = {P: -profile[P].levels[0].v_level for P in ram}  # pole orders v_i > 0
    out = []
    for mu in range(p - 1):
        lams = {}
        for P in ram:
            lam, _ = divmod((p - 1 - mu) * vs[P] + p - 1, p)
            lams[P] = lam
        t = sum(P.degree * lams[P] for P in ram)
        g_factors = [(P, lams[P]) for P in ram if lams[P] > 0]
        for nu in range(t - 1):
            out.append(BasisElement(nu, (mu,), g_factors))
    return out


def enumerate_basis_single_kummer(d: TowerDescriptor):
    """One Kummer step y^n = f: the classical superelliptic recipe.

    With f = alpha*prod p_i^{v_i}, 0 < v_i < n, and n | deg f, the count at
    exponent mu uses e_i*lambda_i + rho_i = mu*m_i + e_i - 1 where
    e_i = n/gcd(n, v_i) and m_i = e_i*v_i/n.
    """
    _single_step(d)
    step = d.steps[0]
    if step.kind != "kummer":
        raise ParseError("expected a Kummer step")
    n = step.n
    c = step.c.constant_part()
    if c.is_zero() or c.den.degree > 0:
        raise ParseError("expected a polynomial defining element")
    if c.num.degree % n != 0:
        raise ParseError("degree of the defining polynomial must be divisible by n")
    profile = analyze(d)
    ram = sorted(
        (P for P in profile if not P.is_infinite), key=lambda P: P.sort_key()
    )
    data = {}
    for P in ram:
        v = ratfun_valuation(c, P)
        e = profile[P].e_total
        m = e * v // n
        data[P] = (v, e, m)
    out = []
    for mu in range(1, n):
        lams = {}
        t = 0
        for P in ram:
            v, e, m = data[P]
            lam, rho = divmod(mu * m + e - 1, e)
            lams[P] = lam
            t += Fraction(P.degree * (e - 1 - rho), e)
        if t.denominator != 1:
            raise NonIntegralInvariant(f"single-step t^mu not integral at mu={mu}")
        t = int(t)
        g_factors = [(P, lams[P]) for P in ram if lams[P] > 0]
        for nu in range(t - 1):
            out.append(BasisElement(nu, (mu,), g_factors))
    return out
