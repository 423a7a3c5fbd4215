"""Tower descriptors, assumption validation, ramification profiles, genus.

A tower is a chain of cyclic steps over K = k(x): Kummer steps y^n = c with
gcd(n, p) = 1, and Artin-Schreier steps y^p - y = c. Each defining element c
lives in the algebra of the levels below its step.
"""

from __future__ import annotations

from math import gcd, prod

from .algebra import (
    AlgebraElement,
    LevelData,
    TrackedPlace,
    valuation,
)
from .errors import (
    FieldMismatch,
    NonIntegralGenus,
    ParseError,
    ValidationFailed,
    ZeroArgument,
)
from .ff import FieldSpec, ff_has_nth_roots_of_unity
from .poly import Poly, RatFun, factorize
from .places import Place


class StepSpec:
    """One cyclic step: kummer(n) with y^n = c, or artin_schreier with y^p - y = c."""

    __slots__ = ("kind", "n", "c")

    def __init__(self, kind: str, c, n: int | None = None):
        if kind not in ("kummer", "artin_schreier"):
            raise ParseError(f"unknown step kind {kind!r}")
        if isinstance(c, Poly):
            c = RatFun(c)
        if isinstance(c, RatFun):
            c = AlgebraElement.from_ratfun(c)
        if not isinstance(c, AlgebraElement):
            raise ParseError("defining element must be polynomial, rational, or algebraic")
        if c.is_zero():
            raise ZeroArgument("defining element is zero")
        p = c.spec.p
        if kind == "kummer":
            if n is None or n < 2:
                raise ParseError("kummer step needs n >= 2")
            if gcd(n, p) != 1:
                raise ParseError(f"kummer degree {n} shares a factor with the characteristic")
        else:
            if n is not None and n != p:
                raise ParseError("artin_schreier degree is the characteristic")
            n = None
        self.kind = kind
        self.n = n
        self.c = c

    @property
    def spec(self) -> FieldSpec:
        return self.c.spec

    @property
    def p(self) -> int:
        return self.c.spec.p

    @property
    def degree(self) -> int:
        return self.n if self.kind == "kummer" else self.p

    def c_algebra(self, spec: FieldSpec) -> AlgebraElement:
        if spec != self.c.spec:
            raise FieldMismatch("step over the wrong constant field")
        return self.c

    def __repr__(self):
        head = f"kummer(n={self.n})" if self.kind == "kummer" else "artin_schreier"
        return f"StepSpec({head}, c={self.c})"


class TowerDescriptor:
    __slots__ = ("field", "steps")

    def __init__(self, field: FieldSpec, steps):
        steps = list(steps)
        if not steps:
            raise ParseError("a tower needs at least one step")
        for i, step in enumerate(steps):
            if not isinstance(step, StepSpec):
                raise ParseError("steps must be StepSpec values")
            if step.spec != field:
                raise FieldMismatch(f"step {i + 1} over the wrong constant field")
            if step.c.level > i:
                raise ParseError(
                    f"defining element of step {i + 1} uses generators of level >= {i + 1}"
                )
        self.field = field
        self.steps = steps

    @property
    def r(self) -> int:
        return len(self.steps)

    def degree(self) -> int:
        out = 1
        for s in self.steps:
            out *= s.degree
        return out

    def truncate(self, length: int) -> TowerDescriptor:
        return TowerDescriptor(self.field, self.steps[:length])

    def __repr__(self):
        return f"TowerDescriptor(F_{self.field.q}, {self.steps})"


def candidate_places(d: TowerDescriptor):
    """Finite K-places in the support of any defining element, plus infinity.

    factorize certifies its factors irreducible, so Place.finite's test is skipped.
    """
    finite = set()
    for step in d.steps:
        for coeff in step.c.terms.values():
            for poly in (coeff.num, coeff.den):
                if poly.degree < 1:
                    continue
                for irr, _ in factorize(poly).factors:
                    finite.add(Place(irr.spec, irr))
    places = sorted(finite, key=lambda P: P.sort_key())
    places.append(Place.infinite(d.field))
    return places


def _walk_place(d: TowerDescriptor, P: Place):
    """Builds the tracked chain above P, recording one report entry per level.

    Entries carry v_c (defining-element valuation in the level-below
    normalization) plus the chosen e_step; anomalies (standard-form
    violations) are flagged for validate() to judge.
    """
    levels: list[LevelData] = []
    e_total = 1
    records = []
    for step in d.steps:
        partial = TrackedPlace(P, levels, e_total)
        v_c = valuation(step.c_algebra(d.field), partial)
        rec = {"kind": step.kind, "v_c": v_c, "anomaly": None}
        if step.kind == "kummer":
            n = step.n
            e_step = n // gcd(n, v_c)
            weight = e_step * v_c // n
            if e_step > 1:
                for lv in levels:
                    lv.weight *= e_step
                e_total *= e_step
            levels.append(
                LevelData("kummer", n, e_step, weight, weight, 1 if e_step > 1 else None)
            )
        else:
            p = step.p
            if v_c < 0:
                if v_c % p == 0:
                    rec["anomaly"] = "wild valuation divisible by p (not standard form)"
                e_step = p
                for lv in levels:
                    lv.weight *= p
                e_total *= p
                levels.append(
                    LevelData("artin_schreier", p, p, v_c, v_c, 1 - v_c)
                )
            else:
                levels.append(LevelData("artin_schreier", p, 1, 0, 0, None))
        rec["e_step"] = levels[-1].e_step
        records.append(rec)
        if rec["anomaly"]:
            break
    return TrackedPlace(P, levels, e_total), records


class CheckResult:
    __slots__ = ("name", "passed", "detail")

    def __init__(self, name, passed, detail=""):
        self.name = name
        self.passed = passed
        self.detail = detail

    def __repr__(self):
        return f"{self.name}: {'pass' if self.passed else 'FAIL'}{' (' + self.detail + ')' if self.detail else ''}"


class ValidationReport:
    __slots__ = ("checks",)

    def __init__(self, checks):
        self.checks = list(checks)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed_checks(self):
        return [c for c in self.checks if not c.passed]

    def __repr__(self):
        return "ValidationReport(" + "; ".join(map(repr, self.checks)) + ")"


def validate(d: TowerDescriptor) -> ValidationReport:
    """Runs every structural assumption check; failures are report entries."""
    return _judge(d, {P: _walk_place(d, P) for P in candidate_places(d)})


def _judge(d: TowerDescriptor, walks: dict) -> ValidationReport:
    """The assumption checks, read off {P: _walk_place(d, P)} over the candidate places."""
    checks = []
    # (a) roots of unity for each Kummer degree
    bad = [
        (i + 1, s.n)
        for i, s in enumerate(d.steps)
        if s.kind == "kummer" and not ff_has_nth_roots_of_unity(d.field, s.n)
    ]
    checks.append(
        CheckResult(
            "roots_of_unity",
            not bad,
            "" if not bad else f"missing n-th roots of unity at steps {bad}",
        )
    )
    # (b) defining elements nonzero, reduced, of the right level
    bad = []
    for i, s in enumerate(d.steps):
        for exps in s.c.terms:
            for j, e in enumerate(exps):
                if e >= d.steps[j].degree:
                    bad.append((i + 1, j + 1))
    checks.append(
        CheckResult(
            "reduced_defining_elements",
            not bad,
            "" if not bad else f"unreduced exponents at (step, level) {bad}",
        )
    )
    p = d.field.p
    # (c) Artin-Schreier standard form at every place
    bad = []
    for P, (_, records) in walks.items():
        for i, rec in enumerate(records):
            if rec["kind"] == "artin_schreier":
                if rec["anomaly"] or (rec["v_c"] < 0 and rec["v_c"] % p == 0):
                    bad.append((str(P), i + 1, rec["v_c"]))
    checks.append(
        CheckResult(
            "artin_schreier_standard_form",
            not bad,
            "" if not bad else f"wild valuations divisible by p at {bad}",
        )
    )
    # (d) Kummer standard form at every place
    bad = []
    for P, (_, records) in walks.items():
        for i, rec in enumerate(records):
            if rec["kind"] != "kummer":
                continue
            n = d.steps[i].n
            v = rec["v_c"]
            if P.is_infinite:
                if v > 0 or v % n != 0:
                    bad.append((str(P), i + 1, v))
            elif rec["e_step"] > 1:
                if not 0 <= v < n:
                    bad.append((str(P), i + 1, v))
            else:
                if v != 0:
                    bad.append((str(P), i + 1, v))
    checks.append(
        CheckResult(
            "kummer_standard_form",
            not bad,
            "" if not bad else f"out-of-range valuations at {bad}",
        )
    )
    # (e) primitivity: no d > 1 divides every ramified valuation with n
    bad = []
    for i, s in enumerate(d.steps):
        if s.kind != "kummer":
            continue
        g = s.n
        ramified_any = False
        for P, (_, records) in walks.items():
            if P.is_infinite or i >= len(records):
                continue
            rec = records[i]
            if rec["e_step"] > 1:
                ramified_any = True
                g = gcd(g, rec["v_c"])
        if not ramified_any or g > 1:
            bad.append((i + 1, g if ramified_any else "no ramified place"))
    checks.append(
        CheckResult(
            "kummer_primitive",
            not bad,
            "" if not bad else f"degenerate Kummer steps {bad}",
        )
    )
    # (f) infinity unramified at every level
    inf_walk, inf_records = walks[Place.infinite(d.field)]
    bad = [(i + 1, rec["e_step"]) for i, rec in enumerate(inf_records) if rec["e_step"] > 1]
    checks.append(
        CheckResult(
            "infinity_unramified",
            not bad,
            "" if not bad else f"infinity ramifies at steps {bad}",
        )
    )
    # (g) every Artin-Schreier step ramifies somewhere
    bad = []
    for i, s in enumerate(d.steps):
        if s.kind != "artin_schreier":
            continue
        if not any(
            i < len(records) and records[i]["e_step"] > 1
            for P, (_, records) in walks.items()
        ):
            bad.append(i + 1)
    checks.append(
        CheckResult(
            "artin_schreier_geometric",
            not bad,
            "" if not bad else f"constant-extension Artin-Schreier steps {bad}",
        )
    )
    return ValidationReport(checks)


def tracked_place(d: TowerDescriptor, P: Place) -> TrackedPlace:
    """The ramification chain above an arbitrary K-place."""
    tp, records = _walk_place(d, P)
    for rec in records:
        if rec["anomaly"]:
            raise ValidationFailed(f"tower not in standard form at {P}: {rec['anomaly']}")
    return tp


def analyze(d: TowerDescriptor) -> dict:
    """Ramification profile: tracked chains for every ramified K-place.

    Each candidate place is walked once; validation judges those same walks.
    """
    walks = {P: _walk_place(d, P) for P in candidate_places(d)}
    report = _judge(d, walks)
    if not report.passed:
        raise ValidationFailed("; ".join(repr(c) for c in report.failed_checks()))
    return {P: tp for P, (tp, _) in walks.items() if tp.ramified}


def genus(d: TowerDescriptor, profile: dict | None = None) -> int:
    """Riemann-Hurwitz over K with the aggregate different exponents."""
    if profile is None:
        profile = analyze(d)
    n = d.degree()
    total = 0
    for P, tp in profile.items():
        total += (n // tp.e_total) * P.degree * tp.different_exponent
    doubled = 2 - 2 * n + total
    if doubled % 2 != 0:
        raise NonIntegralGenus(f"Riemann-Hurwitz sum {doubled} is odd")
    g = doubled // 2
    if g < 0:
        raise NonIntegralGenus(f"negative genus {g}")
    return g


def genus_stepwise(d: TowerDescriptor) -> list[int]:
    """Genus of each partial tower L_1, ..., L_r, from one analysis of L_r.

    Level k of a walk depends only on the levels below it, so the chain in L_i
    is the first i levels of the chain in L_r, up to weights genus never reads.
    """
    profile = analyze(d)
    out = []
    for i in range(1, d.r + 1):
        partial = {}
        for P, tp in profile.items():
            levels = tp.levels[:i]
            partial[P] = TrackedPlace(P, levels, prod(lv.e_step for lv in levels))
        out.append(genus(d.truncate(i), partial))
    return out
