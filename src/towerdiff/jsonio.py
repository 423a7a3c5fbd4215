"""Canonical JSON serialization of every public value.

Everything is integers and arrays (never floats): field elements are a bare
integer for prime fields and an ascending coefficient list otherwise;
polynomials are ascending coefficient arrays; a place is {"finite": [...]}
or the string "infinity". Serialization is deterministic so identical
inputs give byte-identical output.
"""

from __future__ import annotations

import json

from .algebra import AlgebraElement
from .basis import BasisElement
from .errors import ParseError
from .ff import FieldElement, FieldSpec
from .galois import DecompositionReport
from .places import Place
from .poly import Poly, RatFun
from .standard_form import SubstitutionChain
from .tower import StepSpec, TowerDescriptor, ValidationReport


# ---------------------------------------------------------------- encoding

def field_spec_to_json(spec: FieldSpec):
    out = {"p": spec.p, "h": spec.h}
    if spec.h > 1:
        out["modulus"] = [int(c) for c in spec.modulus]
    return out


def element_to_json(a: FieldElement):
    if a.spec.h == 1:
        return int(a.coeffs[0])
    return [int(c) for c in a.coeffs]


def poly_to_json(f: Poly):
    return [element_to_json(c) for c in f.coeffs]


def ratfun_to_json(r: RatFun):
    return {"num": poly_to_json(r.num), "den": poly_to_json(r.den)}


def place_to_json(P: Place):
    if P.is_infinite:
        return "infinity"
    return {"finite": poly_to_json(P.poly)}


def algebra_to_json(a: AlgebraElement):
    out = []
    for exps, coeff in a.sorted_terms():
        out.append(
            {
                "exps": list(exps),
                "num": poly_to_json(coeff.num),
                "den": poly_to_json(coeff.den),
            }
        )
    return out


def step_to_json(s: StepSpec):
    out = {"kind": s.kind, "c": algebra_to_json(s.c)}
    if s.kind == "kummer":
        out["n"] = s.n
    return out


def descriptor_to_json(d: TowerDescriptor):
    return {
        "field": field_spec_to_json(d.field),
        "steps": [step_to_json(s) for s in d.steps],
    }


def validation_to_json(report: ValidationReport):
    return {
        "passed": report.passed,
        "checks": [
            {"name": c.name, "passed": c.passed, "detail": c.detail}
            for c in report.checks
        ],
    }


def profile_to_json(profile):
    out = []
    for P in sorted(profile, key=lambda P: P.sort_key()):
        tp = profile[P]
        out.append(
            {
                "place": place_to_json(P),
                "degree": P.degree,
                "e": tp.e_total,
                "different_exponent": tp.different_exponent,
                "levels": [
                    {
                        "kind": lv.kind,
                        "e_step": lv.e_step,
                        "v": lv.v_level,
                        "jump": lv.jump,
                    }
                    for lv in tp.levels
                ],
            }
        )
    return out


def basis_to_json(basis, pretty: bool = False):
    out = []
    for b in basis:
        rec = {
            "nu": b.nu,
            "mu": list(b.mu),
            "g": [[place_to_json(P), e] for P, e in b.g_factors],
        }
        if pretty:
            rec["pretty"] = b.pretty()
        out.append(rec)
    return out


def chain_to_json(chain: SubstitutionChain):
    out = []
    for rec in chain.records:
        if rec["kind"] == "shift":
            out.append({"kind": "shift", "w": ratfun_to_json(rec["w"])})
        else:
            out.append(
                {
                    "kind": "scale",
                    "alpha": ratfun_to_json(rec["alpha"]),
                    "n": rec["n"],
                }
            )
    return out


def decomposition_to_json(report: DecompositionReport):
    return {
        "t_unr": report.t_unr,
        "genus": report.genus,
        "modules": [
            {
                "mu_p": mod.mu_p,
                "mu_tame": list(mod.mu_tame),
                "dim": mod.dim,
                "multiplicity": mult,
            }
            for mod, mult in report.entries
        ],
    }


def matrix_to_json(m):
    return [[element_to_json(e) for e in row] for row in m]


# ---------------------------------------------------------------- decoding
# Decoders check JSON types before any value reaches the arithmetic, so a
# type-confused document is a ParseError rather than a TypeError.

def _int(doc, what: str) -> int:
    if type(doc) is not int:  # JSON true/false decode to bool, a subclass of int
        raise ParseError(f"{what}: expected an integer, got {json.dumps(doc)}")
    return doc


def _int_list(doc, what: str) -> list[int]:
    if not isinstance(doc, list):
        raise ParseError(f"{what}: expected an array of integers, got {json.dumps(doc)}")
    return [_int(v, what) for v in doc]


def field_spec_from_json(doc) -> FieldSpec:
    if not isinstance(doc, dict) or "p" not in doc:
        raise ParseError("field: expected an object with at least 'p'")
    modulus = doc.get("modulus")
    if modulus is not None:
        modulus = _int_list(modulus, "field modulus")
    return FieldSpec(_int(doc["p"], "field p"), _int(doc.get("h", 1), "field h"), modulus)


def poly_from_json(spec: FieldSpec, doc) -> Poly:
    if not isinstance(doc, list):
        raise ParseError("polynomial: expected a coefficient array")
    coeffs = [
        _int_list(c, "coefficient") if isinstance(c, list) else _int(c, "coefficient")
        for c in doc
    ]
    return Poly(spec, [spec.element(c) for c in coeffs])


def ratfun_from_json(spec: FieldSpec, doc) -> RatFun:
    if isinstance(doc, list):
        return RatFun(poly_from_json(spec, doc))
    if not isinstance(doc, dict) or "num" not in doc:
        raise ParseError("rational function: expected {'num': ..., 'den': ...}")
    num = poly_from_json(spec, doc["num"])
    den = poly_from_json(spec, doc.get("den", [1]))
    return RatFun(num, den)


def place_from_json(spec: FieldSpec, doc) -> Place:
    if doc == "infinity":
        return Place.infinite(spec)
    if isinstance(doc, dict) and "finite" in doc:
        return Place.finite(poly_from_json(spec, doc["finite"]).monic())
    raise ParseError("place: expected {'finite': [...]} or 'infinity'")


def algebra_from_json(spec: FieldSpec, doc) -> AlgebraElement:
    if isinstance(doc, dict) or (
        isinstance(doc, list) and doc and not isinstance(doc[0], dict)
    ):
        # bare polynomial array or {"num","den"} shorthand
        return AlgebraElement.from_ratfun(ratfun_from_json(spec, doc))
    if not isinstance(doc, list):
        raise ParseError("algebra element: expected a list of terms")
    terms = {}
    for i, rec in enumerate(doc):
        if not isinstance(rec, dict) or "exps" not in rec or "num" not in rec:
            raise ParseError(f"algebra element term {i}: expected an object with 'exps' and 'num'")
        coeff = ratfun_from_json(spec, {"num": rec["num"], "den": rec.get("den", [1])})
        terms[tuple(_int_list(rec["exps"], f"algebra element term {i} exps"))] = coeff
    return AlgebraElement(spec, terms)


def step_from_json(spec: FieldSpec, doc) -> StepSpec:
    if not isinstance(doc, dict) or "kind" not in doc or "c" not in doc:
        raise ParseError("step: expected {'kind': ..., 'c': ...}")
    n = doc.get("n")
    if n is not None:
        n = _int(n, "step n")
    return StepSpec(doc["kind"], algebra_from_json(spec, doc["c"]), n)


def descriptor_from_json(doc) -> TowerDescriptor:
    if not isinstance(doc, dict):
        raise ParseError("descriptor: expected a JSON object")
    if "field" not in doc or "steps" not in doc:
        raise ParseError("descriptor: missing 'field' or 'steps'")
    if not isinstance(doc["steps"], list):
        raise ParseError("descriptor: 'steps' must be an array")
    spec = field_spec_from_json(doc["field"])
    steps = [step_from_json(spec, s) for s in doc["steps"]]
    return TowerDescriptor(spec, steps)


def basis_from_json(spec: FieldSpec, doc):
    out = []
    for rec in doc:
        g_factors = [
            (place_from_json(spec, p), e) for p, e in rec.get("g", [])
        ]
        out.append(BasisElement(rec["nu"], tuple(rec["mu"]), g_factors))
    return out
