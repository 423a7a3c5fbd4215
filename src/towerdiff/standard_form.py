"""Constructive normalization of cyclic-step generators over K = k(x).

Covers: weak standard form for Artin-Schreier steps (pole orders made
coprime to p by y -> y + w shifts), the zero-valuation refinement at chosen
unramified places, Kummer standard form (valuations folded into [0, n) by
y -> alpha*y), conversion of composita into towers, and the merge of two
Artin-Schreier components sharing a pole structure a1 + m1*z^n / m2*z.
"""

from __future__ import annotations

from math import comb, gcd

from .algebra import reduce_terms
from .errors import (
    ConstantFieldTooSmall,
    DivisibilityObstruction,
    InvariantViolation,
    NotAnASExtension,
    NotCoprimeToCharacteristic,
    NotPrimitive,
    ParseError,
    SharedPoles,
    SharedRamification,
    ValidationFailed,
    ZeroArgument,
)
from .ff import FieldElement, FieldSpec, ff_pth_root
from .places import Place, ResidueField, artin_schreier_image_test, residue
from .poly import (
    Poly,
    RatFun,
    factorize,
    poly_ext_gcd,
    ratfun_valuation,
)
from .tower import StepSpec, TowerDescriptor


class SubstitutionChain:
    """Replayable list of generator replacements."""

    def __init__(self):
        self.records = []

    def add_shift(self, w: RatFun):
        self.records.append({"kind": "shift", "w": w})

    def add_scale(self, alpha: RatFun, n: int):
        self.records.append({"kind": "scale", "alpha": alpha, "n": n})

    def __len__(self):
        return len(self.records)

    def replay_artin_schreier(self, r: RatFun) -> RatFun:
        """Applies every y -> y + w record: r -> r - (w^p - w)."""
        p = r.spec.p
        for rec in self.records:
            if rec["kind"] != "shift":
                raise ParseError("mixed chain kinds")
            w = rec["w"]
            r = r - (w**p - w)
        return r

    def replay_kummer(self, c: RatFun) -> RatFun:
        for rec in self.records:
            if rec["kind"] != "scale":
                raise ParseError("mixed chain kinds")
            c = c * rec["alpha"] ** rec["n"]
        return c

    def __repr__(self):
        return f"SubstitutionChain({self.records})"


def _as_ratfun(r) -> RatFun:
    return RatFun(r) if isinstance(r, Poly) else r


def _pole_data(r: RatFun):
    """[(finite Place, negative valuation)] from the denominator factorization."""
    out = []
    if r.den.degree > 0:
        for irr, mult in factorize(r.den).factors:
            out.append((Place(irr.spec, irr), -mult))
    return out


def _finite_valuations(c: RatFun) -> dict:
    """{finite Place: v_P(c)} over the places in the support of c."""
    vals = {}
    for poly, sign in ((c.num, 1), (c.den, -1)):
        if poly.degree > 0:
            for irr, mult in factorize(poly).factors:
                vals[Place(irr.spec, irr)] = sign * mult
    return vals


def _finite_correction(r: RatFun, P: Place, v: int) -> RatFun:
    """w with v_P(r - (w^p - w)) > v, for a pole order v < 0 divisible by p."""
    spec = r.spec
    p = spec.p
    m = -v
    pi = RatFun(P.poly)
    rf = ResidueField(P)
    lead = residue(r * pi ** m, P)
    u = rf.pth_root(lead)
    return RatFun(u) / pi ** (m // p)


def _infinite_correction(r: RatFun, v: int) -> RatFun:
    """w = c*x^(m/p) removing the leading infinite pole of order m = -v, p | m."""
    spec = r.spec
    m = -v
    lead = r.num.leading() / r.den.leading()
    c = ff_pth_root(lead)
    return RatFun(Poly.x(spec) ** (m // spec.p) * Poly.constant(spec, c))


def as_weak_standard_form(r: RatFun, unramified_keep=()):
    """Shifts y until every pole order of the defining element is coprime to p.

    Pole orders divisible by p are fake ramification; each pass peels the
    leading p-th-power part off via the p-th root of the residue. Places in
    unramified_keep must end with nonnegative valuation.
    """
    r = _as_ratfun(r)
    spec = r.spec
    p = spec.p
    if r.is_zero():
        raise NotAnASExtension("the zero element defines no extension")
    chain = SubstitutionChain()
    poles = _pole_data(r)
    guard = 2 * sum(-v for _, v in poles)
    guard += 2 * max(0, r.num.degree - r.den.degree) + 8
    for _ in range(guard):
        bad = None
        for P, v in poles:
            if v % p == 0:
                bad = ("finite", P, v)
                break
        if bad is None:
            v_inf = r.den.degree - r.num.degree
            if v_inf < 0 and v_inf % p == 0:
                bad = ("infinite", None, v_inf)
        if bad is None:
            break
        kind, P, v = bad
        w = _finite_correction(r, P, v) if kind == "finite" else _infinite_correction(r, v)
        r = r - (w**p - w)
        chain.add_shift(w)
        if r.is_zero():
            raise NotAnASExtension("defining element is of the form w^p - w")
        poles = _pole_data(r)
    else:
        raise InvariantViolation("weak standard form did not terminate")
    if r.num.degree <= 0 and r.den.degree == 0:
        raise NotAnASExtension("defining element reduces to a constant")
    for P in unramified_keep:
        v = ratfun_valuation(r, P)
        if v < 0:
            raise ValidationFailed(
                f"place {P} marked unramified carries an irreducible pole of order {-v}"
            )
    return r, chain


def _crt_polys(residues_moduli) -> Poly:
    """Polynomial with prescribed residues modulo pairwise coprime irreducible powers."""
    items = list(residues_moduli)
    if not items:
        raise ParseError("empty congruence system")
    spec = items[0][0].spec
    modulus = Poly.one(spec)
    for _, m in items:
        modulus = modulus * m
    out = Poly.zero(spec)
    for a, m in items:
        rest = modulus // m
        g, s, _ = poly_ext_gcd(rest, m)
        if g.degree != 0:
            raise ParseError("moduli not coprime")
        out = out + a * rest * s
    return out % modulus


def as_zero_normal(r: RatFun, keep=()):
    """Pins the valuation at each kept unramified place to exactly zero.

    Partitions the kept places by sign and residue image, corrects with a
    polynomial alpha (chosen by CRT) and a constant shift from outside the
    prime field. Requires a constant field larger than F_p.
    """
    r = _as_ratfun(r)
    spec = r.spec
    keep = list(keep)
    chain = SubstitutionChain()
    if not keep:
        return r, chain
    if spec.h == 1:
        raise ConstantFieldTooSmall(
            "the zero-valuation form needs a constant outside the prime field"
        )
    p = spec.p
    congruences = []
    for P in keep:
        if P.is_infinite:
            raise ParseError("kept places must be finite")
        v = ratfun_valuation(r, P)
        if v < 0:
            raise ValidationFailed(f"{P} is not unramified for {r}")
        if v > 0:
            congruences.append((Poly.zero(spec), P.poly))  # S1: alpha = 0 there
            continue
        rf = ResidueField(P)
        status, witness = artin_schreier_image_test(rf, residue(r, P))
        if status == "in_image":
            congruences.append((witness, P.poly))  # S2: cancel the residue
        else:
            congruences.append((Poly.one(spec), P.poly))  # S3: any unit works
    alpha = _crt_polys(congruences)
    gamma = None
    for a in spec.elements():
        if any(c != 0 for c in a.coeffs[1:]):
            gamma = a
            break
    w = RatFun(alpha + Poly.constant(spec, gamma))
    out = r - (w**p - w)
    chain.add_shift(w)
    for P in keep:
        if ratfun_valuation(out, P) != 0:
            raise InvariantViolation(f"zero-valuation normalization failed at {P}")
    return out, chain


def _is_unit_power(spec: FieldSpec, unit: FieldElement, d: int) -> bool:
    g = gcd(d, spec.q - 1)
    if g == 1:
        return True
    return unit ** ((spec.q - 1) // g) == spec.one()


def kummer_standard_form(c: RatFun, n: int):
    """Folds all finite valuations of c into [0, n) by an exact n-th power.

    Output valuations: in [0, n) at finite places, untouched residue class
    (hence still divisible by n, and nonpositive) at infinity. Proper-power
    defining elements are rejected.
    """
    c = _as_ratfun(c)
    spec = c.spec
    if c.is_zero():
        raise ZeroArgument("defining element is zero")
    if n < 2:
        raise ParseError("need n >= 2")
    if gcd(n, spec.p) != 1:
        raise NotCoprimeToCharacteristic(f"{n} is divisible by the characteristic")
    vals = _finite_valuations(c)
    unit = c.num.leading()
    for d in {f for f in range(2, n + 1) if n % f == 0}:
        if all(v % d == 0 for v in vals.values()) and _is_unit_power(spec, unit, d):
            raise NotPrimitive(f"defining element is a {d}-th power")
    v_inf = c.den.degree - c.num.degree
    if v_inf % n != 0:
        raise ValidationFailed(
            f"infinite place ramifies: its valuation {v_inf} is fixed mod {n}"
        )
    alpha = RatFun.one(spec)
    for P, v in vals.items():
        q, _ = divmod(v, n)  # floor division leaves the residue in [0, n)
        if q != 0:
            alpha = alpha * RatFun(P.poly) ** (-q)
    chain = SubstitutionChain()
    out = c * alpha**n
    if alpha != RatFun.one(spec):
        chain.add_scale(alpha, n)
    for P in vals:
        if not 0 <= ratfun_valuation(out, P) < n:
            raise InvariantViolation(f"valuation at {P} not folded into range")
    return out, chain


def compositum_to_tower(components) -> TowerDescriptor:
    """Orders standard-form cyclic components over K into one tower.

    Artin-Schreier components come first and may not share ramified places;
    each Kummer component must keep its step ramification away from the
    divisibility obstruction n | v_P(c) * e_prev(P).
    """
    components = list(components)
    if not components:
        raise ParseError("no components")
    spec = components[0].spec
    as_comps = [s for s in components if s.kind == "artin_schreier"]
    ku_comps = [s for s in components if s.kind == "kummer"]
    for s in components:
        if s.c.level != 0:
            raise ParseError("components must be defined over the base field")
    e_map: dict[Place, int] = {}
    seen_ram: dict[Place, int] = {}
    for idx, s in enumerate(as_comps):
        c = s.c.constant_part()
        poles = _pole_data(c)
        ram = [P for P, _ in poles]
        v_inf = c.den.degree - c.num.degree
        if v_inf < 0:
            ram.append(Place.infinite(spec))
        for P, v in poles:
            if v % spec.p == 0:
                raise ValidationFailed(
                    f"component {idx + 1} is not in standard form at {P}"
                )
        for P in ram:
            if P in seen_ram:
                raise SharedRamification(
                    f"components {seen_ram[P] + 1} and {idx + 1} both ramify at {P}"
                )
            seen_ram[P] = idx
            e_map[P] = e_map.get(P, 1) * spec.p
    for idx, s in enumerate(ku_comps):
        c = s.c.constant_part()
        n = s.n
        vals = _finite_valuations(c)
        for P, v in vals.items():
            if not 0 <= v < n:
                raise ValidationFailed(
                    f"Kummer component {idx + 1} not in standard form at {P}"
                )
        ram = {P: v for P, v in vals.items() if v % n != 0}
        if not ram:
            raise ValidationFailed(f"Kummer component {idx + 1} ramifies nowhere")
        shared = set(f for f in range(2, n + 1) if n % f == 0)
        for P, v in ram.items():
            scaled = v * e_map.get(P, 1)
            if scaled % n == 0:
                raise DivisibilityObstruction(
                    f"component {idx + 1}: {n} divides v*e = {scaled} at {P}"
                )
            shared = {f for f in shared if scaled % f == 0}
        if shared:
            raise DivisibilityObstruction(
                f"component {idx + 1}: prime factors {sorted(shared)} divide "
                "every ramified v*e"
            )
        for P, v in ram.items():
            scaled = v * e_map.get(P, 1)
            e_map[P] = e_map.get(P, 1) * (n // gcd(n, scaled))
    return TowerDescriptor(spec, as_comps + ku_comps)


class MergeResult:
    """Outcome of replacing y1 by y1 - alpha*y2^n in a two-component compositum."""

    __slots__ = ("alpha", "rhs", "tower", "predicted_valuations", "degenerate")

    def __init__(self, alpha, rhs, tower, predicted_valuations, degenerate):
        self.alpha = alpha
        self.rhs = rhs
        self.tower = tower
        self.predicted_valuations = predicted_valuations
        self.degenerate = degenerate

    def __repr__(self):
        return (
            f"MergeResult(alpha={self.alpha}, degenerate={self.degenerate}, "
            f"predicted={self.predicted_valuations})"
        )


def elementary_abelian_merge(
    a1: RatFun, z: RatFun, m1: FieldElement, m2: FieldElement, n: int
) -> MergeResult:
    """y1^p - y1 = a1 + m1 z^n over K(y2) with y2^p - y2 = m2 z.

    Returns the expanded defining element of the replacement generator
    y1 - alpha*y2^n together with its predicted pole orders.
    """
    a1 = _as_ratfun(a1)
    z = _as_ratfun(z)
    spec = z.spec
    p = spec.p
    if gcd(n, p) != 1:
        raise NotCoprimeToCharacteristic(f"{n} is divisible by the characteristic")
    m1 = spec.element(m1)
    m2 = spec.element(m2)
    if m1.is_zero() or m2.is_zero():
        raise ZeroArgument("unit coefficients must be nonzero")
    if z.is_zero():
        raise ZeroArgument("z must be nonzero")
    a1_poles = {P for P, _ in _pole_data(a1)} if not a1.is_zero() else set()
    z_poles = {P for P, _ in _pole_data(z)}
    if not a1.is_zero() and a1.den.degree - a1.num.degree < 0:
        a1_poles.add(Place.infinite(spec))
    if z.den.degree - z.num.degree < 0:
        z_poles.add(Place.infinite(spec))
    overlap = a1_poles & z_poles
    if overlap:
        raise SharedPoles(f"a1 and z share poles at {sorted(map(str, overlap))}")
    alpha = ff_pth_root(m1 * m2 ** (-n))
    ratio = RatFun.constant(spec, m1 * m2 ** (-n))
    tower = TowerDescriptor(spec, [StepSpec("artin_schreier", z * RatFun.constant(spec, m2))])
    raw = []
    if not a1.is_zero():
        raw.append(((), a1))
    for k in range(1, n):
        coeff = -ratio * RatFun.constant(spec, comb(n, k) % p) * RatFun.constant(spec, m2 ** (n - k)) * z ** (n - k)
        raw.append(((k,), coeff))
    top = RatFun.constant(spec, alpha) - ratio  # alpha - alpha^p
    raw.append(((n,), top))
    rhs = reduce_terms(tower.steps, spec, raw)
    degenerate = n == 1 and m1 == m2
    predicted = {}
    for P in sorted(a1_poles, key=lambda P: P.sort_key()):
        predicted[P] = ratfun_valuation(a1, P)
    if not degenerate:
        for P in sorted(z_poles, key=lambda P: P.sort_key()):
            predicted[P] = ratfun_valuation(z, P) * (1 + p * (n - 1))
    return MergeResult(alpha, rhs, tower, predicted, degenerate)
