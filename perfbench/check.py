"""Independent reference checker for every CLI output the benchmark produces.

References come from closed forms over the plan a tower was built from, in
the benchmark's own arithmetic (fq.py):

- Riemann-Hurwitz, g = 1 - N + 1/2 sum (N / e_P) deg P d_P, with the
  ramification of each step read off its plan: a Kummer step with
  v_P(c) = e ramifies with e_P = n / gcd(n, e) and d_P = e_P - 1; an
  Artin-Schreier pole of order m above a level where P already has
  ramification e ramifies with e_P = p and d_P = (p - 1)(m e + 1). This
  gives (n - 1)(deg f - 2) / 2 for y^n = f with f squarefree and
  (p - 1)/2 (-2 + sum (m_P + 1) deg P) for one Artin-Schreier step.
- For an elementary-abelian Artin-Schreier tower, the sum of the genera of
  its (p^t - 1)/(p - 1) degree-p subfields (Kani-Rosen), computed separately
  and required to agree with Riemann-Hurwitz.

On top of the genus: |basis| = genus with every check flag true, stepwise
genera of every truncation, the ramified places of analyze, M^ord v = v for
the action matrix of each generator and seeded random vectors v, decompose
dimensions summing to the genus, standard forms whose substitution chain maps
input to output, with Artin-Schreier pole orders prime to p and Kummer output
equal to the planted element times an n-th power of a constant, and the genus
of the normalized step. decompose on a non-cyclic group must be refused
(exit 1).
"""

from __future__ import annotations

import json
import random
from itertools import product
from math import gcd

from fq import GF
from gen import step_c_json

# --------------------------------------------------------------- plans

def _roots(gf: GF, f):
    """{b: multiplicity} for the linear factors of f, and the cofactor."""
    mult = {}
    for b in range(gf.q):
        m = gf.multiplicity(f, b)
        if m:
            mult[b] = m
            f = gf.pdivmod(f, gf.ppow(gf.linear(b), m))[0]
    return mult, f


def _ratfun_from_json(gf: GF, doc):
    if isinstance(doc, list):
        return [gf.from_json(a) for a in doc], [1]
    return [gf.from_json(a) for a in doc["num"]], [gf.from_json(a) for a in doc.get("den", [1])]


def plan_from_descriptor(gf: GF, doc):
    """Plan of a descriptor whose steps are over k(x) with split supports.

    Used for the bundled fixtures; a Kummer polynomial that does not split
    must be squarefree and the tower one step long.
    """
    plan = []
    for rec in doc["steps"]:
        c = rec["c"]
        if isinstance(c, list) and c and isinstance(c[0], dict):
            if len(c) != 1 or any(c[0]["exps"]):
                raise ValueError("fixture step defined over a higher level")
            c = c[0]
        num, den = _ratfun_from_json(gf, c)
        if rec["kind"] == "kummer":
            if len(den) != 1:
                raise ValueError("Kummer fixture with a denominator")
            roots, rest = _roots(gf, num)
            if len(rest) == 1:
                plan.append({"kind": "kummer", "n": rec["n"], "unit": rest[0],
                             "places": sorted(roots.items())})
            else:
                plan.append({"kind": "kummer", "n": rec["n"], "poly": num})
        else:
            g = gf.pgcd(num, den)
            num, den = gf.pdivmod(num, g)[0], gf.pdivmod(den, g)[0]
            roots, rest = _roots(gf, den)
            if len(rest) != 1 or len(num) >= len(den):
                raise ValueError("Artin-Schreier fixture with a non-split denominator")
            plan.append({"kind": "artin_schreier",
                         "places": [(b, m, None) for b, m in sorted(roots.items())]})
    return plan


# ------------------------------------------------------ ramification data

def ramification(gf: GF, plan):
    """{place key: (deg P, e_P, d_P)} for the tower of the plan over k(x)."""
    keys = []
    for step in plan:
        if "poly" in step:
            keys.append("f")
        else:
            keys.extend(b for b, *_ in step["places"])
    out = {}
    for key in dict.fromkeys(keys):
        deg, e_tot, d_tot = 1, 1, 0
        for step in plan:
            if step["kind"] == "kummer":
                if "poly" in step:
                    if key != "f":
                        continue
                    deg, v = len(step["poly"]) - 1, 1
                else:
                    v = dict(step["places"]).get(key, 0)
                    if not v:
                        continue
                e = step["n"] // gcd(step["n"], v * e_tot)
                d_step = e - 1
            else:
                m = {b: m for b, m, _ in step["places"]}.get(key)
                if m is None:
                    continue
                e, d_step = gf.p, (gf.p - 1) * (m * e_tot + 1)
            d_tot = e * d_tot + d_step
            e_tot *= e
        if e_tot > 1:
            out[key] = (deg, e_tot, d_tot)
    return out


def degree(gf: GF, plan):
    out = 1
    for step in plan:
        out *= step["n"] if step["kind"] == "kummer" else gf.p
    return out


def genus(gf: GF, plan):
    n = degree(gf, plan)
    total = sum((n // e) * deg * d for deg, e, d in ramification(gf, plan).values())
    doubled = 2 - 2 * n + total
    if doubled % 2:
        raise ValueError("odd Riemann-Hurwitz sum")
    return doubled // 2


def genus_as_subfields(gf: GF, plan):
    """Genus of an elementary-abelian Artin-Schreier tower with disjoint poles."""
    p = gf.p
    orders = [[m for _, m, _ in step["places"]] for step in plan]
    total = 0
    for vec in product(range(p), repeat=len(plan)):
        first = next((c for c in vec if c), 0)
        if first != 1:  # one representative per line
            continue
        poles = sum(m + 1 for c, ms in zip(vec, orders) if c for m in ms)
        total += (p - 1) * (poles - 2) // 2
    return total


def group_is_cyclic(gf: GF, plan):
    """The group is prod Z/n_i x (Z/p)^a for steps over k(x)."""
    ns = [s["n"] for s in plan if s["kind"] == "kummer"]
    wild = len(plan) - len(ns)
    if wild > 1:
        return False
    for i, a in enumerate(ns):
        for b in ns[i + 1:]:
            if gcd(a, b) != 1:
                return False
    return True


# ------------------------------------------------------------ references

class Reference:
    """Expected facts for one item, computed from its plan."""

    def __init__(self, gf: GF, plan, vector_seed):
        self.gf = gf
        self.plan = plan
        self.genus = genus(gf, plan)
        self.stepwise = [genus(gf, plan[: i + 1]) for i in range(len(plan))]
        if len(plan) > 1 and all(s["kind"] == "artin_schreier" for s in plan):
            alt = genus_as_subfields(gf, plan)
            if alt != self.genus:
                raise ValueError(f"reference genera disagree: {self.genus} != {alt}")
        self.cyclic = group_is_cyclic(gf, plan)
        self.vector_seed = vector_seed

    def place_json(self, key):
        gf = self.gf
        return {"finite": [gf.to_json(gf.neg(key)), gf.to_json(1)]}


def _expect(cond, msg, problems):
    if not cond:
        problems.append(msg)


def check_validate(ref, doc, problems):
    checks = doc.get("checks") or []
    _expect(doc.get("passed") is True, "validate did not pass", problems)
    _expect(checks and all(c.get("passed") is True for c in checks),
            "a validation check failed", problems)


def check_analyze(ref, doc, problems):
    ram = ramification(ref.gf, ref.plan)
    if "f" in ram:
        return  # unsplit support: no place list to compare
    want = sorted(json.dumps([ref.place_json(k), deg, e, d], sort_keys=True)
                  for k, (deg, e, d) in ram.items())
    got = sorted(json.dumps([r["place"], r["degree"], r["e"], r["different_exponent"]],
                            sort_keys=True) for r in doc)
    _expect(got == want, f"ramified places {got} != {want}", problems)


def check_genus(ref, doc, problems):
    _expect(doc.get("genus") == ref.genus, f"genus {doc.get('genus')} != {ref.genus}", problems)
    _expect(doc.get("stepwise") == ref.stepwise,
            f"stepwise {doc.get('stepwise')} != {ref.stepwise}", problems)


def check_basis(ref, doc, problems):
    _expect(len(doc) == ref.genus, f"|basis| {len(doc)} != genus {ref.genus}", problems)
    _expect(all(rec.get("check") is True for rec in doc), "a check flag is not true", problems)
    keys = {json.dumps([rec["nu"], rec["mu"], rec["g"]]) for rec in doc}
    _expect(len(keys) == len(doc), "repeated basis element", problems)
    bounds = [s["n"] if s["kind"] == "kummer" else ref.gf.p for s in ref.plan]
    _expect(all(rec["nu"] >= 0 and len(rec["mu"]) == len(bounds)
                and all(0 <= m < b for m, b in zip(rec["mu"], bounds)) for rec in doc),
            "basis exponent out of range", problems)


def _matvec(gf, m, v):
    out = []
    for row in m:
        acc = 0
        for a, b in zip(row, v):
            if a and b:
                acc = gf.add(acc, gf.mul(a, b))
        out.append(acc)
    return out


def check_act(ref, doc, problems, generator):
    gf, g = ref.gf, ref.genus
    raw = doc.get("matrix")
    if not isinstance(raw, list) or len(raw) != g or any(len(row) != g for row in raw):
        problems.append(f"action matrix is not {g} x {g}")
        return
    m = [[gf.from_json(a) for a in row] for row in raw]
    step = ref.plan[generator]
    order = step["n"] if step["kind"] == "kummer" else gf.p
    rng = random.Random(f"{ref.vector_seed}:{generator}")
    for _ in range(2):
        v = [rng.randrange(gf.q) for _ in range(g)]
        w = v
        for _ in range(order):
            w = _matvec(gf, m, w)
        if w != v:
            problems.append(f"M^{order} v != v for generator {generator + 1}")
            return


def check_decompose(ref, doc, problems):
    p = ref.gf.p
    wild = sum(1 for s in ref.plan if s["kind"] == "artin_schreier")
    total = sum(mod["dim"] * mod["multiplicity"] for mod in doc.get("modules", []))
    _expect(doc.get("genus") == ref.genus, f"decompose genus {doc.get('genus')}", problems)
    _expect(total == ref.genus, f"module dimensions sum to {total}, genus {ref.genus}", problems)
    _expect(doc.get("nilpotency") is True, "nilpotency check false", problems)
    _expect(all(mod["multiplicity"] >= 1 and 1 <= mod["mu_p"] <= p**wild
                and mod["dim"] == mod["mu_p"] for mod in doc.get("modules", [])),
            "impossible module", problems)


# ------------------------------------------------ rational function checks

def _rf_eq(gf, a, b):
    return gf.pmul(a[0], b[1]) == gf.pmul(b[0], a[1])


def _rf_sub(gf, a, b):
    return gf.psub(gf.pmul(a[0], b[1]), gf.pmul(b[0], a[1])), gf.pmul(a[1], b[1])


def _rf_mul(gf, a, b):
    return gf.pmul(a[0], b[0]), gf.pmul(a[1], b[1])


def _rf_pow(gf, a, n):
    return gf.ppow(a[0], n), gf.ppow(a[1], n)


def _level0(gf, c):
    if len(c) != 1 or any(c[0]["exps"]):
        raise ValueError("normalized step is not over k(x)")
    return _ratfun_from_json(gf, c[0])


def check_standardform(ref, raw_step, doc, problems, planted):
    """The chain maps input to output, and the output is in standard form.

    planted: the standard-form element the input was built from; None when
    the input is already in standard form (the fixtures). A Kummer output must
    be planted * k^n for a constant k: both have valuations in [0, n) at every
    finite place, so their ratio is a constant n-th power.
    """
    gf = ref.gf
    step = doc["step"]
    out = _level0(gf, step["c"])
    raw_c = raw_step["c"]
    if isinstance(raw_c, list) and raw_c and isinstance(raw_c[0], dict):
        raw = _level0(gf, raw_c)
    else:
        raw = _ratfun_from_json(gf, raw_c)
    cur = raw
    for rec in doc["chain"]:
        if rec["kind"] == "shift":
            w = _ratfun_from_json(gf, rec["w"])
            cur = _rf_sub(gf, cur, _rf_sub(gf, _rf_pow(gf, w, gf.p), w))
        else:
            cur = _rf_mul(gf, cur, _rf_pow(gf, _ratfun_from_json(gf, rec["alpha"]), rec["n"]))
    _expect(_rf_eq(gf, cur, out), "substitution chain does not map input to output", problems)
    if raw_step["kind"] == "kummer":
        n = raw_step["n"]
        s_c = raw if planted is None else _ratfun_from_json(gf, step_c_json(gf, planted))
        ok = any(_rf_eq(gf, out, _rf_mul(gf, s_c, ([gf.pow(k, n)], [1]))) for k in range(1, gf.q))
        _expect(step.get("n") == n and ok, "Kummer output is not s times an n-th power",
                problems)
    else:
        # weak standard form is not unique, so check the property itself
        num, den = out
        g = gf.pgcd(num, den)
        num, den = gf.pdivmod(num, g)[0], gf.pdivmod(den, g)[0]
        poles, rest = _roots(gf, den)
        _expect(len(rest) == 1, "Artin-Schreier output has a pole off the input's places",
                problems)
        at_infinity = len(num) - len(den)
        _expect(all(m % gf.p for m in poles.values()) and (at_infinity <= 0 or at_infinity % gf.p),
                "Artin-Schreier output has a pole order divisible by p", problems)


# ---------------------------------------------------------------- items

def known_defect(ref, problems):
    """decompose on a non-cyclic group does not refuse today (ROADMAP item 2)."""
    return not ref.cyclic and all(p.startswith("decompose:") for p in problems)


def check_item(ref, item, results):
    """Problems with one item's command results; an empty list means it passed.

    results: [(argv, exit code or None, stdout, traceback text or None)].
    """
    problems = []
    for argv, code, out, exc in results:
        name = argv[0]
        if exc is not None:
            problems.append(f"{name}: raised {exc.strip().splitlines()[-1]}")
            continue
        try:
            doc = json.loads(out)
        except ValueError:
            problems.append(f"{name}: stdout is not one JSON document")
            continue
        refuse = name == "decompose" and not ref.cyclic
        if code != (1 if refuse else 0):
            problems.append(f"{name}: exit {code}, expected {1 if refuse else 0}: "
                            f"{out.strip()[:160]}")
            continue
        if refuse:
            continue
        try:
            if name == "validate":
                check_validate(ref, doc, problems)
            elif name == "analyze":
                check_analyze(ref, doc, problems)
            elif name == "genus":
                check_genus(ref, doc, problems)
            elif name == "basis":
                check_basis(ref, doc, problems)
            elif name == "act":
                gen_index = argv[argv.index("--element") + 1].split(",").index("1")
                check_act(ref, doc, problems, gen_index)
            elif name == "decompose":
                check_decompose(ref, doc, problems)
            elif name == "standardform":
                raw_step = item.doc["steps"][0]
                planted = None if item.plan is None else item.plan[0]
                check_standardform(ref, raw_step, doc, problems, planted)
        except (AttributeError, KeyError, TypeError, ValueError, IndexError) as exc:
            problems.append(f"{name}: malformed output ({exc!r})")
    return problems
