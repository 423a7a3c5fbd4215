"""Galois action on the differential basis and module decomposition.

For an abelian tower the generator substitutions y -> zeta*y (tame part)
and y -> y + 1 (wild part) send y^mu to an F_q-combination of monomials
(algebra.monomial_images), so they act on the basis w_{mu,nu} =
x^nu g_mu^{-1} y^mu dx with constant coefficients. The action matrix, the
nilpotency structure of the wild part, and (for cyclic G) the indecomposable
multiplicities are computed exactly over F_q, with no rational-function
arithmetic, and cross-checked against the dimension bookkeeping.
"""

from __future__ import annotations

import functools
from itertools import product
from math import factorial

from .algebra import AlgebraElement, monomial_images
from .basis import enumerate_basis, gamma_indices, invariant_table, lambda_rho
from .errors import (
    ClosureFailure,
    DecompositionInconsistent,
    ParseError,
    UnsupportedAction,
)
from .poly import Poly, RatFun
from .tower import TowerDescriptor, analyze, genus


# act refuses towers above this genus before it allocates the g x g matrix;
# the largest suite tower has g = 2745
MAX_ACTION_GENUS = 3000


def action_matrix(d: TowerDescriptor, h, profile=None):
    """Matrix of the automorphism sigma_1^{h_1}...sigma_r^{h_r} on the basis.

    Entry (i, j) is the coefficient of basis element i in the image of basis
    element j. The wild part only lowers exponents and the tame part only
    scales, so the image of each w_{mu,nu} is a k-combination of basis
    elements; anything else aborts. A genus above MAX_ACTION_GENUS is refused.
    """
    if profile is None:
        profile = analyze(d)
    g = genus(d, profile)
    if g > MAX_ACTION_GENUS:
        raise UnsupportedAction(f"genus {g} exceeds the action matrix cap of {MAX_ACTION_GENUS}")
    basis = enumerate_basis(d, profile)
    index = {(b.mu, b.nu): i for i, b in enumerate(basis)}
    places = [P for P in profile if not P.is_infinite]
    lam = {mu: tuple(lambda_rho(profile[P], mu)[0] for P in places) for mu in gamma_indices(d)}
    image = monomial_images(d, h)

    @functools.cache
    def shift(diff):
        """The nonzero coefficients (l, b_l) of g_mu / g_mu2 = prod P^diff."""
        hpoly = Poly.one(d.field)
        for P, e in zip(places, diff):
            hpoly = hpoly * P.poly**e
        return [(l, bl) for l, bl in enumerate(hpoly.coeffs) if not bl.is_zero()]

    @functools.cache
    def shifted_image(mu):
        """[(mu2, l, c)]: sigma(g_mu^{-1} y^mu) = sum of c x^l g_mu2^{-1} y^mu2.

        So sigma maps w_{mu,nu} to the sum of c w_{mu2,nu+l}, for every nu.
        """
        out = []
        for mu2, c0 in image(mu).items():
            if mu2 not in lam:
                raise ClosureFailure(f"image index {mu2} outside the basis index set")
            diff = tuple(l2 - l1 for l2, l1 in zip(lam[mu2], lam[mu]))
            for P, e in zip(places, diff):
                if e < 0:
                    raise ClosureFailure(
                        f"pole bookkeeping fails: lambda drops at {P} for {mu} -> {mu2}"
                    )
            out.extend((mu2, l, c0 * bl) for l, bl in shift(diff))
        return out

    m = [[d.field.zero()] * len(basis) for _ in basis]
    for j, b in enumerate(basis):
        for mu2, l, c in shifted_image(b.mu):
            target = index.get((mu2, b.nu + l))
            if target is None:
                raise ClosureFailure(
                    f"image term (mu={mu2}, nu={b.nu + l}) of basis element "
                    f"{b.pretty()} leaves the basis"
                )
            m[target][j] = c  # the terms of one image have distinct (mu2, l)
    return m


def _wild_levels(d: TowerDescriptor):
    return [i for i, s in enumerate(d.steps) if s.kind == "artin_schreier"]


def nilpotency_check(d: TowerDescriptor) -> bool:
    """(sigma_i - 1)^{mu_i} z^mu = mu_i! * z^{mu, i -> 0}, one more kills it.

    Checked for every reduced monomial z^mu and every wild level i by
    repeated application of the shift automorphism to {mu: c} dicts over F_q.
    """
    spec = d.field
    zero = spec.zero()
    levels = [(i, monomial_images(d, [int(j == i) for j in range(d.r)])) for i in _wild_levels(d)]

    def minus_one(image, u):
        out = {}
        for mu, c in u.items():
            for mu2, c2 in image(mu).items():
                out[mu2] = out.get(mu2, zero) + c * c2
            out[mu] = out.get(mu, zero) - c
        return {mu: c for mu, c in out.items() if not c.is_zero()}

    for mu in product(*(range(s.degree) for s in d.steps)):
        for i, image in levels:
            u = {mu: spec.one()}
            for _ in range(mu[i]):
                u = minus_one(image, u)
            dropped = mu[:i] + (0,) + mu[i + 1 :]
            if u != {dropped: spec.element(factorial(mu[i]))} or minus_one(image, u):
                return False
    return True


class DeltaModule:
    """Indecomposable summand: Jordan block of size mu_p twisted by a character."""

    __slots__ = ("mu_p", "mu_tame", "dim")

    def __init__(self, mu_p: int, mu_tame, dim: int):
        self.mu_p = mu_p
        self.mu_tame = tuple(mu_tame)
        self.dim = dim

    def __repr__(self):
        return f"DeltaModule(mu_p={self.mu_p}, mu_tame={self.mu_tame}, dim={self.dim})"


class DecompositionReport:
    __slots__ = ("entries", "t_unr", "genus")

    def __init__(self, entries, t_unr, g):
        self.entries = list(entries)  # (DeltaModule, multiplicity)
        self.t_unr = t_unr
        self.genus = g

    def total_dimension(self) -> int:
        return sum(mod.dim * mult for mod, mult in self.entries)

    def __repr__(self):
        return f"DecompositionReport({self.entries}, t_unr={self.t_unr}, g={self.genus})"


def _cyclic_shape(d: TowerDescriptor):
    """(n, t): one optional leading Kummer step, then at most one Artin-Schreier step.

    Artin-Schreier steps over k(x) generate (Z/p)^t, which is not cyclic
    for t >= 2, so such towers are refused.
    """
    kinds = [s.kind for s in d.steps]
    if kinds.count("kummer") > 1:
        raise UnsupportedAction("cyclic decomposition needs at most one tame step")
    if "kummer" in kinds and kinds[0] != "kummer":
        raise UnsupportedAction("cyclic decomposition expects the tame step first")
    t = kinds.count("artin_schreier")
    if t >= 2:
        raise UnsupportedAction(
            f"cyclic decomposition needs at most one Artin-Schreier step; "
            f"{t} of them generate (Z/p)^{t}, which is not cyclic"
        )
    n = d.steps[0].n if kinds[0] == "kummer" else 1
    return n, t


def cyclic_decomposition(d: TowerDescriptor) -> DecompositionReport:
    """Multiplicities d_mu of the indecomposables for cyclic G of order p^t * n.

    Case analysis on mu_p with the invariant table; the top multiplicity
    (the free module of the p-part) is fixed by the per-character dimension
    count, which must come out a nonnegative integer, and the total must be
    the genus.
    """
    n, t = _cyclic_shape(d)
    p = d.field.p
    profile = analyze(d)
    _, table = invariant_table(d, profile)
    g = genus(d, profile)
    t_unr = 0  # every validated wild step ramifies somewhere

    has_tame = d.steps[0].kind == "kummer"
    gamma = set(gamma_indices(d))

    def tval(mu_p: int, mu_ku: int) -> int:
        return table[(mu_ku,) * has_tame + (mu_p,)]

    def delta_flag(mu_p: int, mu_ku: int) -> int:
        return 1 if tval(mu_p, mu_ku) == 0 else 0

    entries = []
    for mu_ku in range(n):
        mults = {}
        for mu_p in range(1, p**t):
            if mu_p < p**t - 1:
                dm = (
                    tval(mu_p - 1, mu_ku)
                    - tval(mu_p, mu_ku)
                    + delta_flag(mu_p - 1, mu_ku)
                    - delta_flag(mu_p, mu_ku)
                )
            elif mu_ku != 0:
                dm = tval(mu_p - 1, mu_ku) - tval(mu_p, mu_ku) + delta_flag(mu_p - 1, mu_ku)
            else:
                dm = tval(mu_p - 1, mu_ku) - delta_flag(mu_p - 1, mu_ku) - 1
            if dm < 0:
                raise DecompositionInconsistent(
                    f"negative multiplicity {dm} at mu_p={mu_p}, character {mu_ku}"
                )
            mults[mu_p] = dm
        eig = sum(
            table[mu] - 1
            for mu in gamma
            if (not has_tame) or mu[0] == mu_ku
        )
        used = sum(dm * mu_p for mu_p, dm in mults.items())
        rem = eig - used
        if rem < 0 or rem % p**t != 0:
            raise DecompositionInconsistent(
                f"character {mu_ku}: eigenspace dimension {eig} does not split as "
                f"{used} plus a multiple of {p**t}"
            )
        mults[p**t] = rem // p**t
        tame_vec = (mu_ku,) if has_tame else ()
        for mu_p, dm in sorted(mults.items()):
            if dm:
                entries.append((DeltaModule(mu_p, tame_vec, mu_p), dm))
    report = DecompositionReport(entries, t_unr, g)
    if report.total_dimension() != g:
        raise DecompositionInconsistent(
            f"dimension sum {report.total_dimension()} != genus {g}"
        )
    return report


def submodule_generators(d: TowerDescriptor, mu, nu: int, profile=None):
    """Generators theta of the submodule attached to the basis element (mu, nu).

    theta_{mu'} = x^nu g_mu^{-1} y^{mu'} dx for every mu' below mu in the
    wild directions (tame part fixed); their span has dimension
    prod(mu_i + 1) over the wild levels and is stable under the action.
    """
    if profile is None:
        profile = analyze(d)
    mu = tuple(mu)
    if len(mu) != d.r:
        raise ParseError("exponent vector length must match the tower height")
    basis_keys = {(b.mu, b.nu) for b in enumerate_basis(d, profile)}
    if (mu, nu) not in basis_keys:
        raise ParseError(f"(mu={mu}, nu={nu}) does not index a basis element")
    spec = d.field
    g_mu = Poly.one(spec)
    for P, tp in profile.items():
        if not P.is_infinite:
            g_mu = g_mu * P.poly ** lambda_rho(tp, mu)[0]
    coeff = RatFun(Poly.x(spec) ** nu, g_mu)
    wild = set(_wild_levels(d))
    ranges = [range(mu[i], mu[i] + 1) if i not in wild else range(mu[i] + 1) for i in range(d.r)]
    out = []
    for mu2 in product(*ranges):
        out.append(AlgebraElement.monomial(spec, mu2, coeff))
    return out
