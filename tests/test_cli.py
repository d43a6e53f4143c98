"""Tests for the command-line front end."""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import random
import re
import time
from pathlib import Path

import pytest

from gradekit import abgroup
from gradekit.abgroup import FinGenAbGroup, Subgroup
from gradekit.bichar import standard_pair
from gradekit.cli import KINDS, main, parse_spec, run, spec_to_json
from gradekit.matgrade import EmbeddedPairing, EvenAssocSpec, OddAssocGSpec, check_spec
from gradekit.superlie import PSpec, check_p_spec

from helpers import TRIVIAL_BETA, count_calls, count_one_pass

ROOT = Path(__file__).resolve().parent.parent

Z = FinGenAbGroup(1, ())

EVEN11 = EvenAssocSpec(Z, (), TRIVIAL_BETA, ((0,),), ((1,),))
P2 = PSpec(Z, (), TRIVIAL_BETA, ((0,), (1,), (2,)), (0,))


def write_spec(tmp_path, name, spec):
    path = tmp_path / name
    path.write_text(json.dumps(spec_to_json(spec)))
    return str(path)


def test_spec_json_roundtrip():
    group = FinGenAbGroup(0, (8, 8))
    _, beta = standard_pair((8,))
    specs = [
        EVEN11,
        P2,
        EvenAssocSpec(group, (group.unit(0), group.unit(1)), beta,
                      ((0, 0),), ((1, 2),)),
        OddAssocGSpec(FinGenAbGroup(0, (4,)), (2,), (), TRIVIAL_BETA,
                      (0,), ((0,), (1,))),
    ]
    for spec in specs:
        assert parse_spec(json.loads(json.dumps(spec_to_json(spec)))) == spec


def test_verify_even_trivial(tmp_path):
    payload, code = run(["verify", "-f", write_spec(tmp_path, "a.json", EVEN11)])
    assert code == 0
    assert payload["verdict"] == "pass"
    assert payload["support"] == [[-1], [0], [1]]
    assert payload["sizes"] == [1, 1]


def test_verify_p_dimension(tmp_path):
    payload, code = run(["verify", "-f", write_spec(tmp_path, "p.json", P2)])
    assert code == 0
    assert payload["verdict"] == "pass"
    assert payload["dimension"] == 17
    assert sum(d for _, d in payload["dims"]) == 17
    assert payload["z_dims"] == {"-1": 6, "0": 8, "1": 3}


def test_verify_rejects_non_square_support(tmp_path):
    doc = {"kind": "even", "group": {"free": 0, "torsion": [2]},
           "tgens": [[1]],
           "beta": {"domain": {"free": 0, "torsion": [2]}, "q": [["0"]]},
           "gamma0": [[0]], "gamma1": [[0]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    payload, code = run(["verify", "-f", str(path)])
    assert code == 1
    assert payload["verdict"] == "error"


def dependent_docs():
    beta = {"domain": {"free": 0, "torsion": [2, 2]},
            "q": [["0", "1/2"], ["1/2", "0"]]}
    even = {"kind": "even", "group": {"free": 0, "torsion": [4]},
            "tgens": [[2], [2]], "beta": beta, "gamma0": [[0]], "gamma1": [[1]]}
    odd_t = {"kind": "odd_t", "group": {"free": 0, "torsion": [2]},
             "tgens": [[0, 1], [0, 1]], "beta": beta, "gamma": [[0]]}
    return [even, odd_t]


@pytest.mark.parametrize("doc", dependent_docs(), ids=["even", "odd_t"])
def test_verify_rejects_dependent_tgens(tmp_path, doc):
    path = tmp_path / "dep.json"
    path.write_text(json.dumps(doc))
    payload, code = run(["verify", "-f", str(path)])
    assert code == 1
    assert payload == {"verdict": "error",
                       "error": "subgroup generators are not independent"}


def big_support_doc(q, tgens):
    return {"kind": "even", "group": {"free": 0, "torsion": [1000, 1000]},
            "tgens": tgens,
            "beta": {"domain": {"free": 0, "torsion": [1000, 1000]}, "q": q},
            "gamma0": [[0, 0]], "gamma1": [[0, 1]]}


@pytest.mark.parametrize("doc, message", [
    (big_support_doc([["0", "1/7"], ["6/7", "0"]], [[1, 0], [0, 1]]),
     "not killed by generator order"),
    (big_support_doc([["0", "0"], ["0", "0"]], [[1, 0], [0, 1]]),
     "bicharacter is degenerate"),
    (big_support_doc([["0", "1/1000"], ["999/1000", "0"]], [[1, 0], [1, 0]]),
     "subgroup generators are not independent"),
], ids=["q-not-killed", "zero-q", "repeated-tgens"])
def test_bad_big_support_is_rejected_before_enumeration(tmp_path, doc, message):
    # |T| = 10^6: rejecting must not tabulate the support
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    for argv in (["verify", "-f", str(path)], ["iso", "-a", str(path), "-b", str(path)]):
        start = time.perf_counter()
        payload, code = run(argv)
        assert time.perf_counter() - start < 1.0
        assert code == 1 and payload["verdict"] == "error"
        assert message in payload["error"]


def inverse_pair_docs(tmp_path):
    """Two even specs on all of Z/300 x Z/300 whose pairings are
    inverse to each other."""
    paths = []
    for name, q in (("a", [["0", "1/300"], ["299/300", "0"]]),
                    ("b", [["0", "299/300"], ["1/300", "0"]])):
        doc = {"kind": "even", "group": {"free": 0, "torsion": [300, 300]},
               "tgens": [[1, 0], [0, 1]],
               "beta": {"domain": {"free": 0, "torsion": [300, 300]}, "q": q},
               "gamma0": [[0, 0]], "gamma1": [[0, 1]]}
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        paths.append(str(path))
    return paths


@pytest.mark.parametrize("mode, code, witness", [
    ("assoc", 1, None),
    ("lie", 0, {"g": [0, 0], "swap": False, "delta": -1}),
])
def test_iso_on_a_large_support_reads_no_element_table(tmp_path, monkeypatch,
                                                       mode, code, witness):
    # |T| = 90 000: comparing the pairings and the coset multisets must
    # not list the support
    a, b = inverse_pair_docs(tmp_path)
    tables = count_calls(monkeypatch, EmbeddedPairing.elements, "func")
    values = count_calls(monkeypatch, EmbeddedPairing, "value")
    start = time.perf_counter()
    payload, got = run(["iso", "-a", a, "-b", b, "--mode", mode])
    assert time.perf_counter() - start < 1.0
    assert got == code and payload.get("witness") == witness
    assert tables == [] and values == []


def test_iso_identical_and_shift(tmp_path):
    a = write_spec(tmp_path, "a.json", EVEN11)
    payload, code = run(["iso", "-a", a, "-b", a])
    assert code == 0
    assert payload["witness"] == {"g": [0], "swap": False, "delta": 1}
    swapped = EvenAssocSpec(Z, (), TRIVIAL_BETA, ((1,),), ((0,),))
    b = write_spec(tmp_path, "b.json", swapped)
    payload, code = run(["iso", "-a", a, "-b", b])
    assert code == 0
    assert payload["witness"]["swap"] is True


def test_iso_p_mode(tmp_path):
    a = write_spec(tmp_path, "a.json",
                   PSpec(Z, (), TRIVIAL_BETA, ((0,), (0,), (0,)), (0,)))
    b = write_spec(tmp_path, "b.json",
                   PSpec(Z, (), TRIVIAL_BETA, ((1,), (1,), (1,)), (2,)))
    c = write_spec(tmp_path, "c.json",
                   PSpec(Z, (), TRIVIAL_BETA, ((1,), (1,), (1,)), (3,)))
    payload, code = run(["iso", "-a", a, "-b", b, "--mode", "p"])
    assert code == 0 and payload["witness"]["g"] == [1]
    payload, code = run(["iso", "-a", a, "-b", c, "--mode", "p"])
    assert code == 1 and payload["verdict"] == "non-isomorphic"


def test_iso_lie_mode_beta_inverse(tmp_path):
    group = FinGenAbGroup(0, (8, 8))
    _, beta = standard_pair((8,))
    tgens = (group.unit(0), group.unit(1))
    s1 = EvenAssocSpec(group, tgens, beta, ((0, 0),), ((0, 0),))
    s2 = EvenAssocSpec(group, tgens, beta.inverse(), ((0, 0),), ((0, 0),))
    a = write_spec(tmp_path, "a.json", s1)
    b = write_spec(tmp_path, "b.json", s2)
    payload, code = run(["iso", "-a", a, "-b", b])
    assert code == 1 and payload["verdict"] == "non-isomorphic"
    payload, code = run(["iso", "-a", a, "-b", b, "--mode", "lie"])
    assert code == 0
    assert payload["witness"]["delta"] == -1


def test_iso_mode_and_group_mismatch(tmp_path):
    a = write_spec(tmp_path, "a.json", EVEN11)
    p = write_spec(tmp_path, "p.json", P2)
    payload, code = run(["iso", "-a", a, "-b", p, "--mode", "p"])
    assert code == 1 and payload["verdict"] == "error"
    payload, code = run(["iso", "-a", p, "-b", p, "--mode", "assoc"])
    assert code == 1 and payload["verdict"] == "error"
    other = EvenAssocSpec(FinGenAbGroup(2, ()), (), TRIVIAL_BETA,
                          ((0, 0),), ((1, 1),))
    b = write_spec(tmp_path, "b.json", other)
    payload, code = run(["iso", "-a", a, "-b", b])
    assert code == 1 and payload["verdict"] == "error"


def test_fine_counts_and_invariants():
    payload, code = run(["fine", "p", "2"])
    assert code == 0 and payload["count"] == 1
    assert payload["descriptors"][0]["invariants"] == [0, 0, 0]
    payload, _ = run(["fine", "p", "3"])
    assert payload["count"] == 3
    payload, _ = run(["fine", "even", "2", "2"])
    assert payload["count"] == 2
    payload, _ = run(["fine", "odd", "2"])
    assert payload["count"] == 3


def test_fine_descriptors_close_the_loop(tmp_path):
    for argv in (["fine", "p", "3"], ["fine", "even", "2", "2"],
                 ["fine", "odd", "1"]):
        payload, code = run(argv)
        assert code == 0
        for desc in payload["descriptors"]:
            path = tmp_path / "spec.json"
            path.write_text(json.dumps(desc["spec"]))
            report, code = run(["verify", "-f", str(path)])
            assert code == 0, report
            assert report["verdict"] == "pass"


def test_fine_size_errors():
    payload, code = run(["fine", "even", "2"])
    assert code == 2 and payload is None
    payload, code = run(["fine", "p", "1"])
    assert code == 1 and payload["verdict"] == "error"


def test_ugroup(tmp_path):
    payload, code = run(["ugroup", "-f", write_spec(tmp_path, "p.json", P2)])
    assert code == 0
    assert payload["pretty"] == "Z"
    assert payload["invariants"] == [0]
    labels = {tuple(deg): tuple(coords) for deg, coords in payload["labels"]}
    assert labels[(0,)] == (0,)
    fine, _ = run(["fine", "p", "2"])
    path = tmp_path / "fine.json"
    path.write_text(json.dumps(fine["descriptors"][0]["spec"]))
    payload, code = run(["ugroup", "-f", str(path)])
    assert code == 0
    assert payload["invariants"] == [0, 0, 0]


def test_parse_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["verify", "-f", str(bad)]) == (None, 2)
    bad.write_text(json.dumps({"kind": "bogus"}))
    assert run(["verify", "-f", str(bad)]) == (None, 2)
    bad.write_text(json.dumps({"kind": "even"}))
    assert run(["verify", "-f", str(bad)]) == (None, 2)
    assert run(["verify", "-f", str(tmp_path / "missing.json")]) == (None, 2)


GROUP_Z = {"free": 1, "torsion": []}
TRIVIAL_JSON = {"domain": {"free": 0, "torsion": []}, "q": []}

# a spec document that fails to parse, and the one stderr line it gets
PARSE_ERRORS = [
    ({"kind": "odd_g", "group": GROUP_Z},
     "gradekit: spec kind 'odd_g' is missing field 't0'\n"),
    ({"kind": "p", "group": GROUP_Z, "tgens": [], "beta": TRIVIAL_JSON,
      "gamma": [[0]]},
     "gradekit: spec kind 'p' is missing field 'g0'\n"),
    # tgens is read before the missing gamma0 and gamma1
    ({"kind": "even", "group": GROUP_Z, "tgens": [[0.5]], "beta": TRIVIAL_JSON},
     "gradekit: bad element coordinates [0.5]\n"),
    ({"kind": "odd_g", "group": GROUP_Z, "t0": 3},
     "gradekit: bad element coordinates 3\n"),
    ({"kind": "bogus"}, "gradekit: unknown spec kind 'bogus'\n"),
    ({"kind": ["even"]}, "gradekit: unknown spec kind ['even']\n"),
    ({}, "gradekit: unknown spec kind None\n"),
]


@pytest.mark.parametrize("doc, err", PARSE_ERRORS)
def test_parse_error_messages(tmp_path, capsys, doc, err):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run(["verify", "-f", str(bad)]) == (None, 2)
    assert capsys.readouterr().err == err


# documents that json cannot decode: bytes that are not UTF-8, nesting
# past the recursion limit, and a coordinate over Python's 4 300-digit
# limit on reading integers
UNDECODABLE = {
    "not-utf8": b"\xff\xfe{}",
    "nested": b"[" * 100000 + b"]" * 100000,
    "long-integer": b'{"kind": "odd_g", "t0": [' + b"7" * 5000 + b"]}",
}


@pytest.mark.parametrize("name", UNDECODABLE)
def test_undecodable_documents_exit_2(tmp_path, monkeypatch, capsys, name):
    bad = tmp_path / "bad.json"
    bad.write_bytes(UNDECODABLE[name])
    stdin = io.TextIOWrapper(io.BytesIO(UNDECODABLE[name]), encoding="utf-8")
    monkeypatch.setattr("sys.stdin", stdin)
    for path in (str(bad), "-"):
        assert run(["verify", "-f", path]) == (None, 2)
        err = capsys.readouterr().err
        assert err.startswith(f"gradekit: cannot decode {path}: ")
        assert err.count("\n") == 1 and err.endswith("\n")


def test_stdin_and_determinism(tmp_path, monkeypatch, capsys):
    doc = json.dumps(spec_to_json(EVEN11))
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    assert main(["verify", "-f", "-"]) == 0
    first = capsys.readouterr().out
    assert first.endswith("\n") and json.loads(first)["verdict"] == "pass"
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    main(["verify", "-f", "-"])
    assert capsys.readouterr().out == first
    main(["fine", "odd", "1"])
    second = capsys.readouterr().out
    main(["fine", "odd", "1"])
    assert capsys.readouterr().out == second


# a non-square exponent matrix, and a pairing domain with a free factor
BAD_BETAS = [
    {"domain": {"free": 0, "torsion": [2, 2]}, "q": [["0", "1/2"]]},
    {"domain": {"free": 1, "torsion": [2, 2]},
     "q": [["0", "1/2"], ["1/2", "0"]]},
]


@pytest.mark.parametrize("beta", BAD_BETAS)
def test_bad_bicharacter_exits_2(tmp_path, capsys, beta):
    doc = spec_to_json(EVEN11)
    doc["beta"] = beta
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    good = write_spec(tmp_path, "good.json", EVEN11)
    for argv in (["verify", "-f", str(bad)], ["ugroup", "-f", str(bad)],
                 ["iso", "-a", good, "-b", str(bad)],
                 ["iso", "-a", str(bad), "-b", good]):
        assert run(argv) == (None, 2)
        assert capsys.readouterr().err.startswith("gradekit: bad bicharacter")


@pytest.mark.parametrize("exc", [RuntimeError("lost track"),
                                 ZeroDivisionError("division by zero"),
                                 AssertionError("dual pair does not split off")])
def test_internal_error_exits_3(monkeypatch, capsys, exc):
    def broken(n):
        raise exc

    monkeypatch.setattr("gradekit.cli.enumerate_odd_fine", broken)
    assert run(["fine", "odd", "2"]) == (None, 3)
    err = capsys.readouterr().err
    assert err == f"gradekit: internal error: {type(exc).__name__}: {exc}\n"
    assert main(["fine", "odd", "2"]) == 3
    out = capsys.readouterr()
    assert out.out == "" and "Traceback" not in out.err
    # a library rejection is still exit 1
    payload, code = run(["fine", "even", "0", "1"])
    assert code == 1 and payload["verdict"] == "error"


def test_parser_is_built_once(tmp_path, monkeypatch):
    path = example_path(tmp_path, "even")
    run(["fine", "odd", "1"])
    built = count_calls(monkeypatch, argparse.ArgumentParser, "__init__")
    for _ in range(10):
        assert run(["fine", "odd", "1"])[1] == 0
        assert run(["verify", "-f", path])[1] == 0
    assert built == []


def test_no_state_outlives_a_call(tmp_path, capsys):
    def usage_error(argv):
        with pytest.raises(SystemExit) as caught:
            run(argv)
        return caught.value.code, capsys.readouterr().err

    first = usage_error(["fine", "odd", "x"])
    assert first[0] == 2
    assert first[1].endswith("argument sizes: invalid int value: 'x'\n")
    path = example_path(tmp_path, "even")
    p_path = example_path(tmp_path, "p")
    assert run(["iso", "-a", path, "-b", path, "--mode", "lie"])[0]["mode"] == "lie"
    assert run(["iso", "-a", path, "-b", path])[0]["mode"] == "assoc"
    assert run(["fine", "even", "2", "2"])[0]["sizes"] == [2, 2]
    assert run(["fine", "odd", "2"])[0]["sizes"] == [2]
    assert run(["iso", "-a", p_path, "-b", p_path, "--mode", "p"])[0]["mode"] == "p"
    assert run(["iso", "-a", path, "-b", path])[0]["mode"] == "assoc"
    assert run(["ugroup", "-f", p_path])[1] == 0
    assert run(["verify", "-f", path])[1] == 0
    assert usage_error(["iso", "-a", "a", "-b", "b", "--mode", "zz"])[0] == 2
    assert usage_error(["fine", "--help"])[0] == 0
    assert usage_error(["fine", "odd", "x"]) == first


def test_help_width_is_read_at_call_time(monkeypatch, capsys):
    run(["fine", "odd", "1"])
    lines = {}
    for columns in ("40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        with pytest.raises(SystemExit) as caught:
            run(["--help"])
        assert caught.value.code == 0
        lines[columns] = len(capsys.readouterr().out.splitlines())
    assert lines["40"] > lines["200"]


def documented_examples() -> dict:
    """{kind: document} for the spec examples of docs/spec-format.md."""
    text = (ROOT / "docs" / "spec-format.md").read_text(encoding="utf-8")
    blocks = [json.loads(b) for b in re.findall(r"```json\n(.*?)```", text, re.S)]
    return {doc["kind"]: doc for doc in blocks if "kind" in doc}


def example_path(tmp_path, kind, mutate=None):
    doc = json.loads(json.dumps(documented_examples()[kind]))
    if mutate is not None:
        mutate(doc)
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(doc))
    return str(path)


NON_INTEGERS = [
    lambda d: d.update(gamma0=[[0.5, 0, 0]]),
    lambda d: d.update(gamma0=[[True, 0, 0]]),
    lambda d: d.update(gamma0=[["1", 0, 0]]),
    lambda d: d.update(gamma0=["100"]),
    lambda d: d["group"].update(free=1.5),
    lambda d: d["group"].update(torsion=[2.5]),
    lambda d: d["group"].update(torsion="22"),
    lambda d: d["beta"]["domain"].update(free=0.0),
    lambda d: d["beta"]["domain"].update(free=False),
    lambda d: d["beta"]["domain"].update(torsion=[2, 2.0]),
]


@pytest.mark.parametrize("mutate", NON_INTEGERS)
def test_non_integer_coordinates_and_group_fields_exit_2(tmp_path, capsys, mutate):
    path = example_path(tmp_path, "even", mutate)
    assert run(["verify", "-f", path]) == (None, 2)
    assert re.match(r"gradekit: bad (element coordinates|group) ",
                    capsys.readouterr().err)


# exponent matrices whose entries are not all JSON strings: numbers, and
# a row given as an object (iterating it would read its keys)
NON_STRING_Q = {
    "numbers": [[0, 0.5], [0.5, 0]],
    "object-row": [{"0": 1, "1/2": 2}, ["1/2", "0"]],
    "inexact-numbers": [[0, 0.3333333333333333], [0.6666666666666667, 0]],
}


@pytest.mark.parametrize("q", NON_STRING_Q.values(), ids=NON_STRING_Q.keys())
def test_non_string_exponents_exit_2(tmp_path, capsys, q):
    path = example_path(tmp_path, "even", lambda d: d["beta"].update(q=q))
    assert run(["verify", "-f", path]) == (None, 2)
    assert capsys.readouterr().err.startswith("gradekit: bad bicharacter")


FUZZ_JUNK = [None, True, -1, 0, 1.5, "x", [], [[]], {}, {"free": 0}]


def _slots(node, out: list) -> list:
    """Every (container, key) at or below a JSON node, depth first."""
    for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
        out.append((node, key))
        if isinstance(value, (dict, list)):
            _slots(value, out)
    return out


def fuzz_mutant(rng, doc: dict) -> dict:
    """A copy of doc with one seeded mutation: a value replaced by junk,
    an integer moved by one, a key dropped, or a list item duplicated.
    None of them makes a modulus large, so the work stays bounded."""
    doc = json.loads(json.dumps(doc))
    slots = _slots(doc, [])
    op = rng.choice(("junk", "int", "drop", "dup"))
    if op == "int":
        slots = [(c, k) for c, k in slots if type(c[k]) is int]
    elif op == "drop":
        slots = [(c, k) for c, k in slots if isinstance(c, dict)]
    elif op == "dup":
        slots = [(c, k) for c, k in slots if isinstance(c[k], list) and c[k]]
    container, key = rng.choice(slots)
    if op == "drop":
        del container[key]
    elif op == "int":
        container[key] += rng.choice((-1, 1))
    elif op == "dup":
        container[key].append(json.loads(json.dumps(rng.choice(container[key]))))
    else:
        container[key] = json.loads(json.dumps(rng.choice(FUZZ_JUNK)))
    return doc


def test_exit_contract_on_mutated_examples(tmp_path, capsys):
    """Seeded mutants of the documented spec examples, each run through
    verify, ugroup and iso: every outcome is exit 0 or 1 with a payload
    that json.dumps accepts and a silent stderr, or exit 2 with no
    payload and one `gradekit:` line, and no exception escapes."""
    rng = random.Random(1)
    examples = {kind: doc for kind, doc in documented_examples().items() if kind in KINDS}
    original, mutated = tmp_path / "original.json", tmp_path / "mutant.json"
    seen = set()
    for _ in range(150):
        for kind, doc in sorted(examples.items()):
            mutant = fuzz_mutant(rng, doc)
            original.write_text(json.dumps(doc))
            mutated.write_text(json.dumps(mutant))
            mode = "p" if kind == "p" else "assoc"
            for argv in (["verify", "-f", str(mutated)], ["ugroup", "-f", str(mutated)],
                         ["iso", "-a", str(original), "-b", str(mutated), "--mode", mode]):
                try:
                    payload, code = run(argv)
                except Exception as exc:
                    pytest.fail(f"{argv[0]} on {json.dumps(mutant)} raised {exc!r}")
                err = capsys.readouterr().err
                assert code in (0, 1, 2), (argv[0], mutant, err)
                if code == 2:
                    assert payload is None, (argv[0], mutant)
                    assert err.startswith("gradekit: ") and err.count("\n") == 1, \
                        (argv[0], mutant, err)
                else:
                    json.dumps(payload)
                    assert err == "", (argv[0], mutant, err)
                seen.add(code)
    assert seen == {0, 1, 2}


# steps of the one validation pass per input spec: an odd_g spec is
# checked inside G, with no quotient G/<t0> and no pairing on it, so its
# one pairing is the converted one on G x Z/2
PER_SPEC = {"even": {"pairings": 1, "checks": 1, "parities": 0, "quotients": 0},
            "odd_t": {"pairings": 1, "checks": 1, "parities": 1, "quotients": 0},
            "odd_g": {"pairings": 1, "checks": 1, "parities": 1, "quotients": 0},
            "p": {"pairings": 1, "checks": 1, "parities": 0, "quotients": 0}}


@pytest.mark.parametrize("command", ["verify", "ugroup"])
@pytest.mark.parametrize("kind", sorted(PER_SPEC))
def test_model_commands_validate_once(tmp_path, monkeypatch, command, kind):
    path = example_path(tmp_path, kind)
    counts = count_one_pass(monkeypatch)
    assert run([command, "-f", path])[1] == 0
    # verify builds the model's realization, one symplectic decomposition;
    # ugroup reads only the block grid, except on P(n), whose labels use
    # the transpose signs of the realization
    decompositions = int(command == "verify" or kind == "p")
    assert {step: len(calls) for step, calls in counts.items()} == \
        dict(PER_SPEC[kind], decompositions=decompositions)


@pytest.mark.parametrize("kind", sorted(PER_SPEC))
def test_ugroup_runs_one_hermite_and_one_smith_form(tmp_path, monkeypatch, kind):
    # past the spec's check, the kernel of the formal degree is one
    # Hermite form and the universal group one Smith form
    path = example_path(tmp_path, kind)
    hermite = count_calls(monkeypatch, abgroup, "hermite_normal_form")
    smith = count_calls(monkeypatch, abgroup, "smith_normal_form")
    spec = parse_spec(documented_examples()[kind])
    (check_p_spec if kind == "p" else check_spec)(spec)
    checked = len(hermite), len(smith)
    del hermite[:], smith[:]
    assert run(["ugroup", "-f", path])[1] == 0
    assert (len(hermite), len(smith)) == (checked[0] + 1, checked[1] + 1)


@pytest.mark.parametrize("kind, mode", [
    ("even", "assoc"), ("even", "lie"), ("odd_t", "assoc"), ("odd_t", "lie"),
    ("odd_g", "assoc"), ("odd_g", "lie"), ("p", "p")])
def test_iso_validates_each_spec_once(tmp_path, monkeypatch, kind, mode):
    path = example_path(tmp_path, kind)
    counts = count_one_pass(monkeypatch)
    assert run(["iso", "-a", path, "-b", path, "--mode", mode])[1] == 0
    # no decider builds a realization
    assert {step: len(calls) for step, calls in counts.items()} == \
        dict({step: 2 * n for step, n in PER_SPEC[kind].items()}, decompositions=0)


def test_even_pairing_check_runs_no_smith_normal_form(tmp_path, monkeypatch):
    # nondegeneracy and independence are read off Hermite forms
    smith = count_calls(monkeypatch, abgroup, "smith_normal_form")
    spec = parse_spec(documented_examples()["even"])
    EmbeddedPairing(spec.group, spec.tgens, spec.beta).check()
    assert smith == []
    assert run(["verify", "-f", example_path(tmp_path, "even")])[1] == 0
    assert smith == []


def test_odd_t_verify_runs_no_smith_normal_form(tmp_path, monkeypatch):
    # the parity element is the nonzero generator of an order-2
    # complement; the parent read it from smith_gens, one Smith form
    smith = count_calls(monkeypatch, abgroup, "smith_normal_form")
    assert run(["verify", "-f", example_path(tmp_path, "odd_t")])[1] == 0
    assert smith == []


def test_odd_g_check_runs_few_normal_forms(monkeypatch):
    # inside G: T+ and the coordinates of theta(s) from one Hermite form,
    # the radical and abar of beta_bar from another, the kernel of
    # doubling and its complement, T_u, the converted pairing's map and
    # its bicharacter's map (the parity element reuses the last); Smith
    # forms for T+ and T_u.  The quotient-based check ran 28 and 3.
    hermite = count_calls(monkeypatch, abgroup, "hermite_normal_form")
    smith = count_calls(monkeypatch, abgroup, "smith_normal_form")
    check_spec(parse_spec(documented_examples()["odd_g"]))
    assert len(hermite) <= 8 and len(smith) <= 2


@pytest.mark.parametrize("mode", ["assoc", "lie"])
def test_iso_odd_lists_no_subgroup(tmp_path, monkeypatch, mode):
    # T cap G is a lattice intersection; |T| = 2 304 is never listed
    payload, _ = run(["fine", "odd", "24"])
    desc = next(d for d in payload["descriptors"] if d["h"] == [2, 2, 2, 2, 3])
    path = tmp_path / "odd24.json"
    path.write_text(json.dumps(desc["spec"]))
    listed = count_calls(monkeypatch, Subgroup, "elements")
    payload, code = run(["iso", "-a", str(path), "-b", str(path), "--mode", mode])
    assert code == 0
    assert payload["witness"] == {"g": [0] * 10, "swap": False, "delta": 1}
    assert listed == []


def test_traced_benchmark_names_resolve(monkeypatch):
    """bench/run.py --trace looks these gradekit functions up by name."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    layers = importlib.import_module("layers")
    for _, module, funcs, _ in layers.NAMED:
        mod = importlib.import_module(f"gradekit.{module}")
        for dotted in funcs:
            layers._code_key(mod, dotted)


def pinned_invocations(tmp_path):
    """(name, argv) of the invocations OUTPUT_DIGESTS pins: verify,
    ugroup and iso on the documented examples, three fine listings, and
    ugroup of every fine grading of M(4,4)."""
    for kind in sorted(PER_SPEC):
        path = example_path(tmp_path, kind)
        yield f"verify {kind}", ["verify", "-f", path]
        yield f"ugroup {kind}", ["ugroup", "-f", path]
        for mode in (["p"] if kind == "p" else ["assoc", "lie"]):
            yield f"iso {kind} {mode}", ["iso", "-a", path, "-b", path, "--mode", mode]
    for argv in (["fine", "even", "4", "4"], ["fine", "odd", "6"], ["fine", "p", "7"]):
        yield " ".join(argv), argv
    payload, _ = run(["fine", "even", "4", "4"])
    for i, desc in enumerate(payload["descriptors"]):
        path = tmp_path / f"fine-even-4-4-{i}.json"
        path.write_text(json.dumps(desc["spec"]))
        yield f"ugroup fine even 4 4 #{i}", ["ugroup", "-f", str(path)]


def output_digests(tmp_path) -> dict:
    """{name: sha256 of json.dumps(payload, sort_keys=True)} over
    pinned_invocations, the bytes `gradekit` prints before the newline."""
    out = {}
    for name, argv in pinned_invocations(tmp_path):
        payload, _ = run(argv)
        text = json.dumps(payload, sort_keys=True)
        out[name] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return out


# sha256 of the payloads of pinned_invocations, recorded before kernels,
# intersections and preimages moved onto abgroup.lattice_tail.  The CLI
# output is meant to stay byte-identical across refactors; a change that
# alters it on purpose has to change these digests openly.
OUTPUT_DIGESTS = {
    "verify even":
        "95c60852713a6f72f66c464e05968ccd451917ca43b0d801085c2ea9285c9d61",
    "ugroup even":
        "1162df6140723396afcd43a67e289d76d15df94cbbb2c8133a2947f627bbf654",
    "iso even assoc":
        "8996dd6d95d28501d65f4f81a19bc69229fd06a614e200d68f64bdebfcad4952",
    "iso even lie":
        "8e4fbd5a3a769e00ba041d4cd02a9d5b88fd59553d56059ccc09821b94cc5195",
    "verify odd_g":
        "1b840f67b93f60c05c716e9a1fa138ee9cb41dc54fca20b877e249abdaaed73c",
    "ugroup odd_g":
        "0460701424a14f2bbc206fdf6eca96772b196934a482b25fe9a0aa9c682c6a9e",
    "iso odd_g assoc":
        "a51ed4725af5e6f56ad36fed2fc6c4445d8b0a582a508ff97d96e7b646c0f6c6",
    "iso odd_g lie":
        "31e5d9b05881d4908ca4b1c5fed328e45b867fa66e472b22cd4fb6021d32cb9d",
    "verify odd_t":
        "1b840f67b93f60c05c716e9a1fa138ee9cb41dc54fca20b877e249abdaaed73c",
    "ugroup odd_t":
        "0460701424a14f2bbc206fdf6eca96772b196934a482b25fe9a0aa9c682c6a9e",
    "iso odd_t assoc":
        "a51ed4725af5e6f56ad36fed2fc6c4445d8b0a582a508ff97d96e7b646c0f6c6",
    "iso odd_t lie":
        "31e5d9b05881d4908ca4b1c5fed328e45b867fa66e472b22cd4fb6021d32cb9d",
    "verify p":
        "d50d3ff53734af7898af084702907d15ae1dac0048604133b81cbbc2212b425c",
    "ugroup p":
        "41b360d7daf8ba683ace07c44f95926ef93fb257ab98b4fb1411cbeebd394ab7",
    "iso p p":
        "6613729dfb35d97718d0adfd92e41d65bdff6bb8243ff52983c45106f0321ea9",
    "fine even 4 4":
        "fea1807dcf12b8cc5608c2ec9fa9628e4e4d85c47f51e4df3294df10b158fbb5",
    "fine odd 6":
        "0c7fc21222b65df57e0ba217f474907b7224850d497f477e0bfc011438648b1d",
    "fine p 7":
        "8b45ecf06b7a0b461209d8d05860cc0c84c7915af0924eebd9b3b14765578ba7",
    "ugroup fine even 4 4 #0":
        "19ef39b76919c4cec22da7e59379d16c6ad3b1085617c5f9cd5b0f54bae2c5e4",
    "ugroup fine even 4 4 #1":
        "7f43675339b9fafd0012d54bb0a50b361caf72bbd98a004301eda4c06f6caa7a",
    "ugroup fine even 4 4 #2":
        "bb51dc129c15c52b1db4deb974ed6fffa0132e7cc773ee469041ae0296b25ba6",
    "ugroup fine even 4 4 #3":
        "63c4473b8e2cd9004edc3b38f6bcb2a91084af25171e8c629c757d44a402c9db",
}


def test_cli_output_digests(tmp_path):
    start = time.perf_counter()
    got = output_digests(tmp_path)
    assert time.perf_counter() - start < 5.0
    assert got == OUTPUT_DIGESTS


FINE_LISTINGS = (["fine", "odd", "4"], ["fine", "odd", "6"], ["fine", "even", "4", "4"])

# sha256 of the verify payload of every descriptor of FINE_LISTINGS,
# recorded while even and odd models had separate builders: the odd
# listings build odd models, the even one even models.
FINE_VERIFY_DIGESTS = {
    "verify fine odd 4 #0":
        "3c0f3c6ae8c1b835d9807ec64d59f354c4480d9858fe146305c2f2ae56df0c00",
    "verify fine odd 4 #1":
        "584fbd285379175b1ff8128e16cfb4654610ce609cb055e0a70e276669888520",
    "verify fine odd 4 #2":
        "2d3e0918d3177a6c315a691ef9a015758c610feef8c255aeddc0bf80bd396ecd",
    "verify fine odd 4 #3":
        "528ec3ff94dda31d359bc2571b68d9c7f03ebcb79d7f426caca897a17ebee210",
    "verify fine odd 4 #4":
        "4a6325f7681f0ebb34610a021d40bc26f3821b9e084fb400077b71cd182dc912",
    "verify fine odd 4 #5":
        "322c842ee71e0797a199aefd32d31880390db8a0d86e5e871fe2d51d0f437d09",
    "verify fine odd 4 #6":
        "ef89625161eaefd5af0b1f715d44a011798600627c258051fe2184eec2ce7134",
    "verify fine odd 6 #0":
        "cb1b492fe529ecab572906ea91eb2641199663fced9bad8cfadf5a8176bd27dc",
    "verify fine odd 6 #1":
        "3c226f6dd0e7462abc487ea367282f25344d0c182e76d8140b3bd08e238362cb",
    "verify fine odd 6 #2":
        "bfaadaa05bafa25b5aded409894df0bc9485d31fb20e6b0a0e82f9508ab48ae1",
    "verify fine odd 6 #3":
        "2c58e0fbe4d207021c606bcf032cfe04a21db461d61730e5add3d82ecd1d149d",
    "verify fine odd 6 #4":
        "60ddfbcef27c24bdb3d4486b75bd9e23cddce9daf84fdb7ec73bc6f25ade9938",
    "verify fine odd 6 #5":
        "83265b7e72b87159f636c715166ca36261421e91c87b9bd25e9f60be392cc757",
    "verify fine even 4 4 #0":
        "a1cd312739baf356d95de2344b53f9ff2f0f2bba7ead940926f098ae0d526c48",
    "verify fine even 4 4 #1":
        "5b3aa824decf88923cf54c4dd03ae65b173ebc05197bfcefd205c7d2c01b9c59",
    "verify fine even 4 4 #2":
        "4119bd53aee8cf2fa879dc26ee4b8a6cd82e1f95d2da8a7cae53d2c3f8e6d878",
    "verify fine even 4 4 #3":
        "daf08593c1b571b999e044eaa61e5744afc1e69d60863b4a139432882644ea14",
}


def test_fine_verify_digests(tmp_path):
    start = time.perf_counter()
    got = {}
    for argv in FINE_LISTINGS:
        listing, _ = run(argv)
        for i, desc in enumerate(listing["descriptors"]):
            path = tmp_path / "spec.json"
            path.write_text(json.dumps(desc["spec"]))
            payload, _ = run(["verify", "-f", str(path)])
            text = json.dumps(payload, sort_keys=True)
            got[f"verify {' '.join(argv)} #{i}"] = hashlib.sha256(
                text.encode("utf-8")).hexdigest()
    assert time.perf_counter() - start < 5.0
    assert got == FINE_VERIFY_DIGESTS


# argv that end in argparse's SystemExit: usage errors and help
USAGE_ARGV = {
    "no command": [],
    "verify without file": ["verify"],
    "unknown command": ["nope"],
    "iso without b": ["iso", "-a", "x"],
    "fine without sizes": ["fine", "odd"],
    "fine non-integer size": ["fine", "odd", "x"],
    "fine bad family": ["fine", "q", "2"],
    "iso bad mode": ["iso", "-a", "a", "-b", "b", "--mode", "zz"],
    "help": ["--help"],
    "verify help": ["verify", "--help"],
}

# sha256 of json.dumps([SystemExit code, stdout, stderr]) of USAGE_ARGV
# under COLUMNS=80, recorded while every call still built its own
# parser.  They are argparse's bytes as Python 3.11 writes them.
USAGE_DIGESTS = {
    "no command":
        "3d57a27cd5048719f9303dbe72f9abe3253dfc2c3e7b13a6b29b87220165bacf",
    "verify without file":
        "70b1cd79d7a6339be3f9ae0bd17c48e62ab1f47b6af490f397818dd34e811071",
    "unknown command":
        "5a0a29ada1aff3f0c8224b41681393d1cdfcf289cd98655b1ee576a01e1cc5b7",
    "iso without b":
        "ee74fcd7fc908315b8363e7b4496aa3121e96b051ca5b8457c701e43fcad334a",
    "fine without sizes":
        "2b9b9a77f548f0fb1a896d47eeab9ff81dc21cb218ad56d3512cdab1a27d4199",
    "fine non-integer size":
        "b3e524d33ae221615d25464fabfcb0eeae17ab376462a1d9e69a85088a84578e",
    "fine bad family":
        "72ab6fa39661932c842f518bd22ddda9574ecdb9490b30ab85180e48a87b44c0",
    "iso bad mode":
        "1d85dfc61a1c3803fd3fbd86a62dc9b9f1ced26e1f2b5ff1024ac858ea625e36",
    "help":
        "cadd4fc29872275e431cf8fa642a3647ef2aab0d066d861106ec0fab3dadfeab",
    "verify help":
        "55ae72e409e6cbec2572a78db7b8052b2eb51f3ec5bb672e1a97630230648c8d",
}


def test_usage_error_and_help_digests(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    for _ in range(2):
        got = {}
        for name, argv in USAGE_ARGV.items():
            with pytest.raises(SystemExit) as caught:
                run(argv)
            out = capsys.readouterr()
            text = json.dumps([caught.value.code, out.out, out.err])
            got[name] = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert got == USAGE_DIGESTS
