"""Shared fixtures: the bundled curves and a randomized tower generator."""

import json
import random
from importlib import resources

import pytest

from towerdiff import jsonio
from towerdiff.ff import FieldSpec
from towerdiff.poly import Poly, RatFun
from towerdiff.tower import StepSpec, TowerDescriptor, validate

FIXTURE_NAMES = [
    "artin_mumford_p3",
    "as_genus2_f3",
    "elliptic_f5",
    "fermat_n3_f7",
    "hermitian_p3",
    "mixed_tower_f3",
]


def load_fixture(name):
    path = resources.files("towerdiff") / "fixtures" / f"{name}.json"
    return jsonio.descriptor_from_json(json.loads(path.read_text()))


@pytest.fixture(scope="session")
def fixtures():
    return {name: load_fixture(name) for name in FIXTURE_NAMES}


@pytest.fixture(scope="session")
def suite():
    """The 200 validated random towers of the acceptance criteria."""
    return random_towers(200)


# ------------------------------------------------- randomized tower factory

_FIELDS = [
    FieldSpec(3),
    FieldSpec(5),
    FieldSpec(7),
    FieldSpec(3, 2, [1, 0, 1]),
    FieldSpec(5, 2, [2, 0, 1]),
    FieldSpec(7, 2, [1, 0, 1]),
]


def _random_kummer(rng, spec, pool):
    options = [n for n in (2, 3, 4, 5) if (spec.q - 1) % n == 0]
    n = rng.choice(options)
    k = rng.randint(1, min(3, len(pool)))
    chosen = rng.sample(pool, k)
    exps = [rng.randint(1, n - 1) for _ in chosen]
    total = sum(e * f.degree for e, f in zip(exps, chosen))
    if total % n != 0:
        # pad with one more place so n divides the degree
        rest = [f for f in pool if f not in chosen]
        pad = (-total) % n
        padding = [f for f in rest if f.degree == 1]
        if not padding or pad >= n:
            return None
        chosen.append(rng.choice(padding))
        exps.append(pad)
    c = Poly.one(spec)
    for f, e in zip(chosen, exps):
        c = c * f**e
    return StepSpec("kummer", c, n)


def _random_as(rng, spec, pool):
    k = rng.randint(1, min(3, len(pool)))
    chosen = rng.sample(pool, k)
    c = RatFun.zero(spec)
    for f in chosen:
        m = rng.choice([m for m in (1, 2, 4) if m % spec.p != 0])
        num = Poly.constant(spec, rng.randint(1, spec.p - 1))
        c = c + RatFun(num, f**m)
    if c.is_zero():
        return None
    return StepSpec("artin_schreier", c)


def random_towers(count, seed=20240817):
    """Validated random towers: r <= 3, n_i <= 5, few ramified places."""
    rng = random.Random(seed)
    out = []
    attempts = 0
    while len(out) < count and attempts < count * 60:
        attempts += 1
        spec = rng.choice(_FIELDS)
        x = Poly.x(spec)
        pool = [x - Poly.constant(spec, a) for a in range(min(spec.p, 5))]
        if spec.h > 1:
            pool.append(x - Poly.constant(spec, spec.generator()))
        r = rng.randint(1, 3)
        steps = []
        used = []
        ok = True
        for _ in range(r):
            # mostly disjoint supports keep the standard-form checks honest
            avail = [f for f in pool if f not in used] or pool
            if rng.random() < 0.5:
                step = _random_kummer(rng, spec, avail)
            else:
                step = _random_as(rng, spec, avail)
            if step is None:
                ok = False
                break
            steps.append(step)
            for coeff in step.c.terms.values():
                for f in avail:
                    if coeff.num % f == Poly.zero(spec) or coeff.den % f == Poly.zero(spec):
                        used.append(f)
        if not ok or not steps:
            continue
        try:
            d = TowerDescriptor(spec, steps)
        except Exception:
            continue
        if validate(d).passed:
            out.append(d)
    return out
