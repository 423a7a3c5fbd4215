"""Command-line front end: JSON descriptors in, JSON reports out.

Exit codes: 0 success, 1 usage, parse or validation failure, 2 internal
invariant violation. Output is canonical (sorted keys, fixed separators) so
identical inputs give byte-identical results.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import jsonio
from .basis import enumerate_basis, holomorphy_check
from .errors import InvariantViolation, ParseError, TowerDiffError
from .galois import action_matrix, cyclic_decomposition, nilpotency_check
from .places import Place
from .poly import Poly
from .standard_form import as_weak_standard_form, kummer_standard_form
from .tower import StepSpec, analyze, genus_stepwise, tracked_place, validate


def _emit(doc, pretty: bool) -> None:
    if pretty:
        text = json.dumps(doc, indent=2, sort_keys=True)
    else:
        text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    sys.stdout.write(text + "\n")


def _load(args):
    if args.input and args.input != "-":
        with open(args.input, "r", encoding="utf-8") as fh:
            raw = fh.read()
    else:
        raw = sys.stdin.read()
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    return jsonio.descriptor_from_json(doc)


def cmd_validate(args) -> int:
    d = _load(args)
    report = validate(d)
    _emit(jsonio.validation_to_json(report), args.pretty)
    return 0 if report.passed else 1


def cmd_analyze(args) -> int:
    d = _load(args)
    profile = analyze(d)
    _emit(jsonio.profile_to_json(profile), args.pretty)
    return 0


def cmd_genus(args) -> int:
    d = _load(args)
    stepwise = genus_stepwise(d)
    _emit({"genus": stepwise[-1], "stepwise": stepwise}, args.pretty)
    return 0


def cmd_basis(args) -> int:
    d = _load(args)
    profile = analyze(d)
    basis = enumerate_basis(d, profile)
    doc = jsonio.basis_to_json(basis, pretty=args.pretty)
    if args.check:
        # one map of walked places for the whole basis: the oracle walks only
        # the places missing from it, and every g-factor place is in the profile
        places = dict(profile)
        extra = [Place.infinite(d.field)]
        if any(b.nu > 0 for b in basis):
            extra.append(Place(d.field, Poly.x(d.field)))
        for P in extra:
            if P not in places:
                places[P] = tracked_place(d, P)
        for rec, b in zip(doc, basis):
            ok = holomorphy_check(d, b, places)
            rec["check"] = ok
            if not ok:
                _emit(doc, args.pretty)
                raise InvariantViolation(f"emitted element {b.pretty()} fails the oracle")
    _emit(doc, args.pretty)
    return 0


def cmd_decompose(args) -> int:
    d = _load(args)
    report = cyclic_decomposition(d)
    doc = jsonio.decomposition_to_json(report)
    doc["nilpotency"] = nilpotency_check(d)
    _emit(doc, args.pretty)
    return 0


def cmd_standardform(args) -> int:
    d = _load(args)
    step = d.steps[0]
    c = step.c.constant_part()
    if step.c.level != 0:
        raise ParseError("standardform expects a step defined over the base field")
    if step.kind == "kummer":
        out, chain = kummer_standard_form(c, step.n)
        normalized = StepSpec("kummer", out, step.n)
    else:
        out, chain = as_weak_standard_form(c)
        normalized = StepSpec("artin_schreier", out)
    _emit(
        {
            "step": jsonio.step_to_json(normalized),
            "chain": jsonio.chain_to_json(chain),
        },
        args.pretty,
    )
    return 0


def cmd_act(args) -> int:
    d = _load(args)
    try:
        h = [int(part) for part in args.element.split(",")]
    except ValueError:
        raise ParseError(f"--element expects comma-separated integers, got {args.element!r}")
    m = action_matrix(d, h)
    _emit({"matrix": jsonio.matrix_to_json(m)}, args.pretty)
    return 0


COMMANDS = {
    "validate": cmd_validate,
    "analyze": cmd_analyze,
    "genus": cmd_genus,
    "basis": cmd_basis,
    "decompose": cmd_decompose,
    "standardform": cmd_standardform,
    "act": cmd_act,
}


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as parse_error (exit 1) rather than exiting with 2."""

    def error(self, message):
        raise ParseError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="towerdiff",
        description="Exact invariants of cyclic-step function field towers",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--input", default="-", help="descriptor file (default stdin)")
        cmd.add_argument("--pretty", action="store_true", help="indented, annotated output")
        if name == "basis":
            cmd.add_argument(
                "--check", action="store_true", help="run the holomorphy oracle"
            )
        if name == "act":
            cmd.add_argument(
                "--element",
                required=True,
                help="group element as comma-separated generator exponents",
            )
    return parser


def main(argv=None) -> int:
    args = None
    try:
        args = build_parser().parse_args(argv)
        return COMMANDS[args.command](args)
    except TowerDiffError as exc:
        _emit({"error": exc.code, "detail": str(exc)}, getattr(args, "pretty", False))
        return 2 if isinstance(exc, InvariantViolation) else 1


if __name__ == "__main__":
    sys.exit(main())
