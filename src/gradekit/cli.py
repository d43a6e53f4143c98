"""Command-line front end over a JSON spec format.

Four subcommands: verify builds a model and checks it, iso runs the
isomorphism deciders, fine lists fine gradings, ugroup computes the
universal grading group.  Exit codes: 0 for pass/isomorphic, 1 for a
domain failure or a negative verdict (told apart by the "verdict"
field), 2 for unparseable input, 3 for an internal error (a broken
invariant inside the library, reported on stderr with no output).
Output is a single JSON document with sorted keys, so identical inputs
give identical bytes.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from typing import Optional, Sequence

from .abgroup import Coords, FinGenAbGroup
from .bichar import Bicharacter
from .classify import (
    IsoWitness,
    enumerate_even_fine,
    enumerate_odd_fine,
    enumerate_P_fine,
    iso_even_assoc,
    iso_lie_typeI,
    iso_odd_assoc,
    iso_P,
)
from .matgrade import (
    EvenAssocSpec,
    OddAssocGSpec,
    OddAssocTSpec,
    build_matrix_model,
    universal_group,
    verify_grading,
)
from .superlie import PSpec, build_P_model, universal_P_group, verify_P_graded


class SpecFormatError(Exception):
    """The document is syntactically broken (exit code 2), as opposed to
    a well-formed spec that fails validation (exit code 1)."""


def _is_int(x) -> bool:
    """A JSON integer: bool is an int subclass in Python, JSON true is not."""
    return isinstance(x, int) and not isinstance(x, bool)


def _coords(obj) -> Coords:
    if not isinstance(obj, list) or not all(_is_int(c) for c in obj):
        raise SpecFormatError(f"bad element coordinates {obj!r}")
    return tuple(obj)


def _coords_list(obj) -> tuple[Coords, ...]:
    if not isinstance(obj, list):
        raise SpecFormatError(f"expected a list of elements, got {obj!r}")
    return tuple(_coords(x) for x in obj)


def _group(obj) -> FinGenAbGroup:
    torsion = obj.get("torsion", []) if isinstance(obj, dict) else None
    if not (isinstance(torsion, list) and all(_is_int(d) for d in torsion)
            and _is_int(obj.get("free"))):
        raise SpecFormatError(f"bad group {obj!r}")
    try:
        return FinGenAbGroup.from_json(obj)
    except ValueError as exc:
        raise SpecFormatError(f"bad group {obj!r}") from exc


def _beta(obj) -> Bicharacter:
    try:
        domain = _group(obj["domain"])
        q = obj["q"]
        if not (isinstance(q, list) and all(isinstance(row, list) and
                                            all(isinstance(v, str) for v in row)
                                            for row in q)):
            raise ValueError("exponents must be a list of lists of strings")
        return Bicharacter(domain, q)
    except SpecFormatError:
        raise
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise SpecFormatError(f"bad bicharacter {obj!r}") from exc


def beta_to_json(beta: Bicharacter) -> dict:
    return {"domain": beta.domain.to_json(),
            "q": [[str(v) for v in row] for row in beta.q]}


# each spec kind's dataclass; a spec document holds one key per field
KINDS = {"even": EvenAssocSpec, "odd_t": OddAssocTSpec, "odd_g": OddAssocGSpec,
         "p": PSpec}


def _lists(xs: tuple[Coords, ...]) -> list:
    return [list(x) for x in xs]


# (read, write) per field name; every field not named holds a list of
# elements
CODECS = {"group": (_group, FinGenAbGroup.to_json),
          "beta": (_beta, beta_to_json), "beta_bar": (_beta, beta_to_json),
          "t0": (_coords, list), "u": (_coords, list), "g0": (_coords, list)}
ELEMENTS = (_coords_list, _lists)


def parse_spec(obj):
    """The spec a document describes; its fields are read in order, so
    the first missing or malformed one is the one reported."""
    if not isinstance(obj, dict):
        raise SpecFormatError("spec document must be a JSON object")
    kind = obj.get("kind")
    cls = KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise SpecFormatError(f"unknown spec kind {kind!r}")
    values = []
    for f in dataclasses.fields(cls):
        if f.name not in obj:
            raise SpecFormatError(f"spec kind {kind!r} is missing field {f.name!r}")
        values.append(CODECS.get(f.name, ELEMENTS)[0](obj[f.name]))
    return cls(*values)


def spec_to_json(spec) -> dict:
    kind = next((k for k, cls in KINDS.items() if isinstance(spec, cls)), None)
    if kind is None:
        raise TypeError(f"not a spec: {spec!r}")
    out = {"kind": kind}
    for f in dataclasses.fields(spec):
        out[f.name] = CODECS.get(f.name, ELEMENTS)[1](getattr(spec, f.name))
    return out


def _invariants(group: FinGenAbGroup) -> list[int]:
    """Invariant factors with one 0 per free rank, torsion first."""
    return list(group.invariant_factors()) + [0] * group.free_rank


def _family(spec) -> str:
    if isinstance(spec, EvenAssocSpec):
        return "even"
    if isinstance(spec, (OddAssocTSpec, OddAssocGSpec)):
        return "odd"
    return "p"


def cmd_verify(spec) -> tuple[dict, int]:
    if isinstance(spec, PSpec):
        model = build_P_model(spec)
        report = verify_P_graded(model)
        payload = {
            "verdict": "pass" if report.ok else "fail",
            "kind": "p", "n": model.n,
            "dimension": model.total_dim(),
            "dims": [[list(deg), dim]
                     for deg, dim in sorted(report.dims.items())],
            "z_dims": {str(z): dim for z, dim in sorted(report.z_dims.items())},
            "failures": report.failures,
        }
        return payload, 0 if report.ok else 1
    model = build_matrix_model(spec)
    report = verify_grading(model)
    payload = {
        "verdict": "pass" if report.ok else "fail",
        "kind": model.kind, "sizes": list(model.sizes),
        "support": [list(deg) for deg in report.support],
        "support_even": [list(deg) for deg in report.supp_even],
        "support_odd": [list(deg) for deg in report.supp_odd],
        "dims": [[list(deg), parity, dim] for (deg, parity), dim
                 in sorted(model.dimension_table().items())],
        "failures": report.failures,
    }
    return payload, 0 if report.ok else 1


def _witness_json(witness: IsoWitness) -> dict:
    return {"g": list(witness.g), "swap": witness.swap,
            "delta": witness.delta}


def cmd_iso(s1, s2, mode: str) -> tuple[dict, int]:
    f1, f2 = _family(s1), _family(s2)
    if mode == "p" and (f1 != "p" or f2 != "p"):
        raise ValueError("mode p needs two periplectic specs")
    if mode != "p" and (f1 == "p" or f2 == "p"):
        raise ValueError(f"mode {mode} cannot compare periplectic specs")
    if f1 != f2:
        witness: Optional[IsoWitness] = None
    elif mode == "p":
        witness = iso_P(s1, s2)
    elif mode == "lie":
        witness = iso_lie_typeI(s1, s2)
    elif f1 == "even":
        witness = iso_even_assoc(s1, s2)
    else:
        witness = iso_odd_assoc(s1, s2)
    if witness is None:
        return {"verdict": "non-isomorphic", "mode": mode}, 1
    return {"verdict": "isomorphic", "mode": mode,
            "witness": _witness_json(witness)}, 0


def _descriptor_json(desc) -> dict:
    return {
        "family": desc.family,
        "h": list(desc.h),
        "blocks": list(desc.blocks),
        "t0": None if desc.t0 is None else list(desc.t0),
        "universal": desc.universal.to_json(),
        "invariants": _invariants(desc.universal),
        "spec": spec_to_json(desc.spec),
    }


def cmd_fine(family: str, sizes: Sequence[int]) -> tuple[dict, int]:
    if family == "even":
        descs = enumerate_even_fine(sizes[0], sizes[1])
    elif family == "odd":
        descs = enumerate_odd_fine(sizes[0])
    else:
        descs = enumerate_P_fine(sizes[0])
    payload = {"family": family, "sizes": list(sizes),
               "count": len(descs),
               "descriptors": [_descriptor_json(d) for d in descs]}
    return payload, 0


def cmd_ugroup(spec) -> tuple[dict, int]:
    if isinstance(spec, PSpec):
        group, labels = universal_P_group(spec)
    else:
        group, labels = universal_group(build_matrix_model(spec))
    payload = {
        "universal": group.to_json(),
        "invariants": _invariants(group),
        "pretty": str(group),
        "labels": [[list(deg), list(coords)]
                   for deg, coords in sorted(labels.items())],
    }
    return payload, 0


def _load_json(path: str):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        return json.loads(text)
    except OSError as exc:
        raise SpecFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecFormatError(f"invalid JSON in {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # not UTF-8, nested too deeply, or an integer over Python's digit limit
        raise SpecFormatError(f"cannot decode {path}: {exc}") from exc


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line, built on the first call and shared after it.

    parse_args leaves the parser unchanged, and argparse reads
    sys.stderr and COLUMNS when it prints, not here.
    """
    parser = argparse.ArgumentParser(
        prog="gradekit",
        description="verify and classify group gradings on matrix "
                    "superalgebras and their Lie relatives")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="build a model and check it")
    p_verify.add_argument("-f", "--file", required=True,
                          help="spec JSON path, or - for stdin")

    p_iso = sub.add_parser("iso", help="decide isomorphism of two specs")
    p_iso.add_argument("-a", required=True, help="first spec JSON path")
    p_iso.add_argument("-b", required=True, help="second spec JSON path")
    p_iso.add_argument("--mode", choices=("assoc", "lie", "p"),
                       default="assoc")

    p_fine = sub.add_parser("fine", help="enumerate fine gradings")
    p_fine.add_argument("family", choices=("even", "odd", "p"))
    p_fine.add_argument("sizes", nargs="+", type=int)

    p_ugroup = sub.add_parser("ugroup", help="universal grading group")
    p_ugroup.add_argument("-f", "--file", required=True,
                          help="spec JSON path, or - for stdin")
    return parser


def run(argv: Optional[Sequence[str]] = None) -> tuple[Optional[dict], int]:
    """Parse, dispatch and return (payload, exit code).

    The payload is not printed.  On exit code 2 or 3 one `gradekit:`
    line goes to stderr.  A usage error raises argparse's SystemExit(2)
    after its usage line on stderr, and -h raises SystemExit(0) after
    the help on stdout.  One parser is built per process and reused.
    """
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            work = (cmd_verify, (parse_spec(_load_json(args.file)),))
        elif args.command == "iso":
            work = (cmd_iso, (parse_spec(_load_json(args.a)),
                              parse_spec(_load_json(args.b)), args.mode))
        elif args.command == "fine":
            expected = 2 if args.family == "even" else 1
            if len(args.sizes) != expected:
                raise SpecFormatError(
                    f"fine {args.family} takes {expected} size argument(s)")
            work = (cmd_fine, (args.family, args.sizes))
        else:
            work = (cmd_ugroup, (parse_spec(_load_json(args.file)),))
    except SpecFormatError as exc:
        print(f"gradekit: {exc}", file=sys.stderr)
        return None, 2
    handler, handler_args = work
    try:
        return handler(*handler_args)
    except ValueError as exc:
        return {"verdict": "error", "error": str(exc)}, 1
    except (RuntimeError, ArithmeticError, AssertionError) as exc:
        print(f"gradekit: internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return None, 3


def main(argv: Optional[Sequence[str]] = None) -> int:
    payload, code = run(argv)
    if payload is not None:
        sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
