"""Seeded workload generators: descriptor JSON plus the plan it was built from.

Generators use only the benchmark's own arithmetic (fq.py) and never call
towerdiff. Every tower is valid by construction:

- a Kummer step has n | q - 1, exponents 1 <= e < n with sum(e) = 0 mod n
  (so infinity is unramified) and gcd(n, e...) = 1 (primitive);
- an Artin-Schreier pole order is prime to p and there is no pole at
  infinity;
- supports are disjoint between steps, except that an Artin-Schreier step may
  follow a Kummer step at a shared place.

A plan step is one of
  {"kind": "kummer", "n", "unit", "places": [(b, e), ...]}  c = unit * prod (x - b)^e
  {"kind": "kummer", "n", "poly": f}                       c = f, f squarefree
  {"kind": "artin_schreier", "places": [(b, m, a), ...]}   c = sum a / (x - b)^m
Items come in rounds of ROUND[workload] positions. The shape of item k
(field, step kinds, Kummer degrees and exponents, pole orders, factor degrees)
and its values (places, units, coefficients, polynomials) are drawn from
random generators keyed by its position k % ROUND alone; the positions are
stratified over the families and fields of the workload. The run's seed and
k draw only a twist: the substitution x -> x / nu for a nu in F_p^*, which
moves every place b to nu * b and gives an isomorphic tower with the same
sparsity pattern. So every round and every seed holds the same towers up to
isomorphism, and the same work, under inputs that differ from round to round
and from seed to seed, which keeps rounds and runs comparable. (The value
draws, not the shapes, set most of an item's cost: two towers of one shape
can differ by a factor of two.)
"""

from __future__ import annotations

import json
import random
from importlib import resources
from math import gcd

from fq import GF, QUADRATIC_MODULI

FIXTURES = [
    "artin_mumford_p3",
    "as_genus2_f3",
    "elliptic_f5",
    "fermat_n3_f7",
    "hermitian_p3",
    "mixed_tower_f3",
]


class Item:
    """One input and the CLI commands it goes through.

    commands: argv lists; the token "{normalized}" as the first element marks
    a command whose input is the step printed by the preceding standardform.
    """

    __slots__ = ("label", "gf", "doc", "text", "plan", "commands")

    def __init__(self, label, gf, doc, plan, commands):
        self.label = label
        self.gf = gf
        self.doc = doc
        self.text = json.dumps(doc)
        self.plan = plan
        self.commands = commands


# ------------------------------------------------------------ descriptors

def step_c_json(gf: GF, step):
    if step["kind"] == "kummer":
        if "poly" in step:
            return [gf.to_json(a) for a in step["poly"]]
        c = [step["unit"]]
        for b, e in step["places"]:
            c = gf.pmul(c, gf.ppow(gf.linear(b), e))
        return [gf.to_json(a) for a in c]
    num, den = as_ratfun(gf, step["places"])
    return {"num": [gf.to_json(a) for a in num], "den": [gf.to_json(a) for a in den]}


def as_ratfun(gf: GF, places):
    """sum a / (x - b)^m over one common denominator."""
    den = [1]
    for b, m, _ in places:
        den = gf.pmul(den, gf.ppow(gf.linear(b), m))
    num = []
    for b, m, a in places:
        rest = [a]
        for b2, m2, _ in places:
            if b2 != b:
                rest = gf.pmul(rest, gf.ppow(gf.linear(b2), m2))
        num = gf.padd(num, rest)
    return num, den


def descriptor(gf: GF, steps):
    out = []
    for s in steps:
        rec = {"kind": s["kind"], "c": step_c_json(gf, s)}
        if s["kind"] == "kummer":
            rec["n"] = s["n"]
        out.append(rec)
    return {"field": gf.field_json(), "steps": out}


def generator_args(plan):
    return [["act", "--element", ",".join("1" if j == i else "0" for j in range(len(plan)))]
            for i in range(len(plan))]


# ------------------------------------------------------------ step makers

def kummer_exponents(shape, n, k):
    """k exponents in [1, n) with sum = 0 mod n and gcd(n, e...) = 1 (k must be even if n = 2)."""
    while True:
        exps = [shape.randint(1, n - 1) for _ in range(k - 1)]
        last = (-sum(exps)) % n
        if last and gcd(gcd(n, last), *exps) == 1:
            return exps + [last]


def kummer_step(shape, rng, gf, n, places):
    exps = kummer_exponents(shape, n, len(places))
    return {"kind": "kummer", "n": n, "unit": rng.randrange(1, gf.q),
            "places": list(zip(places, exps))}


def as_step(rng, gf, places, orders):
    return {
        "kind": "artin_schreier",
        "places": [(b, m, rng.randrange(1, gf.p)) for b, m in zip(places, orders)],
    }


_FIELDS = {}


def _field(p, h=1):
    if (p, h) not in _FIELDS:
        _FIELDS[p, h] = GF(p, h, QUADRATIC_MODULI[p] if h > 1 else None)
    return _FIELDS[p, h]


# Positions per round; every round has the same shapes (see the module docstring).
ROUND = {"suite": 18, "highdeg": 9, "galois": 9, "normalize": 20}


def _rngs(workload, k):
    """(shape generator, value generator), both keyed by the position of item k."""
    j = k % ROUND[workload]
    return random.Random(f"{workload}-shape:{j}"), random.Random(f"{workload}-values:{j}")


def _nu(workload, seed, k, p):
    """The twist of item k in the run of this seed: an element of F_p^*."""
    return random.Random(f"{workload}:{seed}:{k}").randrange(1, p)


def substitute(gf: GF, f, nu):
    """f(x / nu): coefficient i times nu^-i."""
    inv = gf.inv(nu)
    return [gf.mul(c, gf.pow(inv, i)) for i, c in enumerate(f)]


def twist(gf: GF, plan, nu):
    """The plan after the substitution x -> x / nu (an isomorphic tower).

    (x/nu - b)^e = nu^-e (x - nu b)^e, so a place b moves to nu * b, a
    Kummer unit gains nu^-(sum e), an Artin-Schreier coefficient a becomes
    a * nu^m, and a Kummer polynomial f becomes f(x / nu).
    """
    out = []
    for step in plan:
        if step["kind"] == "artin_schreier":
            out.append({"kind": "artin_schreier",
                        "places": [(gf.mul(nu, b), m, gf.mul(a, gf.pow(nu, m)))
                                   for b, m, a in step["places"]]})
        elif "poly" in step:
            out.append({"kind": "kummer", "n": step["n"],
                        "poly": substitute(gf, step["poly"], nu)})
        else:
            total = sum(e for _, e in step["places"])
            out.append({"kind": "kummer", "n": step["n"],
                        "unit": gf.mul(step["unit"], gf.pow(gf.inv(nu), total)),
                        "places": [(gf.mul(nu, b), e) for b, e in step["places"]]})
    return out


# ------------------------------------------------------------ suite

SUITE_FIELDS = [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (7, 2)]


def suite_tower(shape, rng, gf):
    """Tier-1 distribution: r <= 3 steps, each on at most 3 linear places.

    The shape picks positions in a pool of linear places; the value generator
    decides which field element sits at each position.
    """
    p = gf.p
    pool = list(range(min(p, 5)))
    if gf.h > 1:
        pool.append(rng.randrange(p, gf.q))  # a place outside the prime field
    pool = rng.sample(pool, len(pool))
    ns = [n for n in (2, 3, 4, 5) if (gf.q - 1) % n == 0]
    orders = [m for m in (1, 2, 4) if m % p]
    kummer_used, as_used, steps = set(), set(), []
    for kind in [shape.choice("KA") for _ in range(shape.randint(1, 3))]:
        free = [i for i in range(len(pool)) if i not in kummer_used and i not in as_used]
        if kind == "K" and len(free) >= 2:
            n = shape.choice(ns)
            pos = shape.sample(free, 2 if n == 2 else shape.randint(2, min(3, len(free))))
            steps.append(kummer_step(shape, rng, gf, n, [pool[i] for i in pos]))
            kummer_used.update(pos)
            continue
        # an Artin-Schreier step, also where too few places are left for a
        # Kummer step; it prefers unused places but may reuse Kummer places
        cand = free if free and shape.random() < 0.7 else [
            i for i in range(len(pool)) if i not in as_used]
        if cand:
            pos = shape.sample(cand, shape.randint(1, min(3, len(cand))))
            steps.append(as_step(rng, gf, [pool[i] for i in pos],
                                 [shape.choice(orders) for _ in pos]))
            as_used.update(pos)
    return steps


SUITE_TOWER_COMMANDS = [["validate"], ["analyze"], ["genus"], ["basis", "--check"]]


def fixture_items():
    out = []
    for name in FIXTURES:
        path = resources.files("towerdiff") / "fixtures" / f"{name}.json"
        doc = json.loads(path.read_text())
        f = doc["field"]
        gf = GF(f["p"], f.get("h", 1), f.get("modulus"))
        cmds = [["validate"], ["analyze"], ["genus"], ["basis", "--check"],
                ["decompose"], ["standardform"]] + generator_args(doc["steps"])
        out.append(Item(f"fixture:{name}", gf, doc, None, cmds))
    return out


def suite_item(seed, k, fixtures):
    # every third position is a bundled fixture through all seven subcommands,
    # so that a round of 18 holds each of the six once
    j = k % ROUND["suite"]
    if j % 3 == 2:
        return fixtures[j // 3]
    shape, rng = _rngs("suite", k)
    gf = _field(*shape.choice(SUITE_FIELDS))
    steps = twist(gf, suite_tower(shape, rng, gf), _nu("suite", seed, k, gf.p))
    return Item(f"suite:{k}", gf, descriptor(gf, steps), steps,
                [list(c) for c in SUITE_TOWER_COMMANDS])


# ------------------------------------------------------------ highdeg

HIGHDEG_CURVES = [(101, 2), (101, 5), (1000003, 2)]


def highdeg_shape(shape, j):
    """(p, n, degrees of the irreducible factors of f) with n | deg f and n | p - 1.

    Over F_1000003 the degrees are distinct, so that factorize splits f by
    degree alone. Its equal-degree splitting draws random trials seeded by
    the input, which over that field made one tower cost from 0.35 to 0.85 s
    depending on the twist alone; over F_101 the trials are cheap and stay.
    """
    p, n = HIGHDEG_CURVES[j % len(HIGHDEG_CURVES)]
    top = 8 if p == 101 else 4
    while True:
        degrees = sorted(shape.randint(1, 4) for _ in range(shape.randint(1, 4)))
        if p != 101 and len(set(degrees)) < len(degrees):
            continue
        if sum(degrees) % n == 0 and 3 <= sum(degrees) <= top:
            return p, n, degrees


def random_irreducible(rng, gf, d):
    """Monic irreducible of degree d (Ben-Or: gcd(x^(q^i) - x, f) = 1 for i <= d/2)."""
    while True:
        f = [rng.randrange(gf.q) for _ in range(d)] + [1]
        h, ok = [0, 1], True
        for _ in range(d // 2):
            h = gf.ppowmod(h, gf.q, f)
            if len(gf.pgcd(gf.psub(h, [0, 1]), f)) > 1:
                ok = False
                break
        if ok:
            return f


def highdeg_item(seed, k, _fixtures):
    shape, rng = _rngs("highdeg", k)
    p, n, degrees = highdeg_shape(shape, k % ROUND["highdeg"])
    gf = _field(p)
    f = [rng.randrange(1, p)]
    factors = []
    for d in degrees:  # distinct factors, so f is squarefree
        g = random_irreducible(rng, gf, d)
        while g in factors:
            g = random_irreducible(rng, gf, d)
        factors.append(g)
        f = gf.pmul(f, g)
    steps = twist(gf, [{"kind": "kummer", "n": n, "poly": f}], _nu("highdeg", seed, k, p))
    return Item(f"highdeg:{k}", gf, descriptor(gf, steps), steps,
                [["genus"], ["basis", "--check"]])


# ------------------------------------------------------------ galois

GALOIS_FAMILIES = ["ea", "ka", "as"]


def galois_shape(shape, j):
    """Family j mod 3, genus 4 to 176, each item at most a few seconds.

    ("ea", p, pole orders): elementary-abelian Artin-Schreier tower, one step per order
    ("ka", p, n, Kummer places, AS pole orders): Kummer then Artin-Schreier, cyclic
    ("as", p, pole orders): one Artin-Schreier step
    """
    family = GALOIS_FAMILIES[j % len(GALOIS_FAMILIES)]
    p = shape.choice([5, 7])
    if family == "ea":
        if p == 5 and shape.random() < 0.2:
            return "ea", 5, (1, 1, 1)
        return "ea", p, (shape.randint(1, 3), shape.randint(1, 3))
    if family == "ka":
        n = shape.choice([n for n in (2, 3, 4) if (p - 1) % n == 0])
        count = 2 if n == 2 else shape.randint(2, 3)
        return "ka", p, n, count, tuple(shape.randint(1, 4) for _ in range(shape.randint(1, 2)))
    return "as", p, tuple(shape.randint(1, 4) for _ in range(shape.randint(2, 3)))


def galois_item(seed, k, _fixtures):
    shape_rng, rng = _rngs("galois", k)
    shape = galois_shape(shape_rng, k % ROUND["galois"])
    gf = _field(shape[1])
    if shape[0] == "ka":
        _, _, n, count, orders = shape
        places = rng.sample(range(gf.p), count + len(orders))
        steps = [kummer_step(shape_rng, rng, gf, n, places[:count]),
                 as_step(rng, gf, places[count:], orders)]
    else:
        orders = shape[2]
        places = rng.sample(range(gf.p), len(orders))
        if shape[0] == "as":
            steps = [as_step(rng, gf, places, orders)]
        else:
            steps = [as_step(rng, gf, [b], [m]) for b, m in zip(places, orders)]
    steps = twist(gf, steps, _nu("galois", seed, k, gf.p))
    cmds = [["basis", "--check"]] + generator_args(steps) + [["decompose"]]
    return Item(f"galois:{k}", gf, descriptor(gf, steps), steps, cmds)


# ------------------------------------------------------------ normalize

NORMALIZE_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31]


def _ratfun_json(gf, num, den):
    return {"num": [gf.to_json(a) for a in num], "den": [gf.to_json(a) for a in den]}


def normalize_item(seed, k, _fixtures):
    """A standard-form step s disguised as s + w^p - w or s * w^n.

    A round of 20 positions holds each prime once with each kind.
    """
    shape, rng = _rngs("normalize", k)
    j = k % ROUND["normalize"]
    p = NORMALIZE_PRIMES[j % len(NORMALIZE_PRIMES)]
    gf = _field(p)
    places = rng.sample(range(p), min(p, 4))
    if j // len(NORMALIZE_PRIMES) % 2 == 0:
        n = shape.choice([n for n in (2, 3, 4, 5, 6) if (p - 1) % n == 0])
        s = kummer_step(shape, rng, gf, n, places[:2 if n == 2 else 3])
        # w = unit * prod (x - b)^e, e in {-1, 0, 1}, over the s places and a fresh one
        num, den = [rng.randrange(1, p)], [1]
        for b in places:
            e = shape.randint(-1, 1)
            if e > 0:
                num = gf.pmul(num, gf.linear(b))
            elif e < 0:
                den = gf.pmul(den, gf.linear(b))
        s_c = [gf.from_json(a) for a in step_c_json(gf, s)]
        c = _ratfun_json(gf, gf.pmul(s_c, gf.ppow(num, n)), gf.ppow(den, n))
        step = {"kind": "kummer", "n": n, "c": c}
    else:
        s = as_step(rng, gf, places[:2], shape.sample((1, 2, 4), 2))
        s_num, s_den = as_ratfun(gf, s["places"])
        # w = sum a / (x - b) + const at one s place and one fresh place
        w_num, w_den = as_ratfun(gf, [(b, 1, rng.randrange(1, p)) for b in places[1:3]])
        w_num = gf.padd(w_num, gf.pscale(w_den, rng.randrange(p)))
        # s + w^p - w over the common denominator s_den * w_den^p
        wp_den = gf.ppow(w_den, p)
        coboundary = gf.psub(gf.ppow(w_num, p), gf.pmul(w_num, gf.ppow(w_den, p - 1)))
        c_num = gf.padd(gf.pmul(s_num, wp_den), gf.pmul(s_den, coboundary))
        step = {"kind": "artin_schreier", "c": _ratfun_json(gf, c_num, gf.pmul(s_den, wp_den))}
    # the twist x -> x / nu, applied to the raw element and to the planted s
    nu = _nu("normalize", seed, k, p)
    c = step["c"]
    step["c"] = _ratfun_json(gf, substitute(gf, [gf.from_json(a) for a in c["num"]], nu),
                             substitute(gf, [gf.from_json(a) for a in c["den"]], nu))
    doc = {"field": gf.field_json(), "steps": [step]}
    return Item(f"normalize:{k}", gf, doc, twist(gf, [s], nu),
                [["standardform"], ["{normalized}", "genus"]])


WORKLOADS = {
    "suite": suite_item,
    "highdeg": highdeg_item,
    "galois": galois_item,
    "normalize": normalize_item,
}
