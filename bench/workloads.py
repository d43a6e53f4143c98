"""Seeded inputs and the fixed operation list of each workload.

A workload is a list of `Op`s, each one `gradekit.cli.run(argv)` call on
spec files this module writes, with the oracle that checks its output.
The seed picks labels, shifts, torsion factors, mutations and samples;
it never changes how many operations of each shape a list holds, so
every seed does the same amount of work of the same kinds.
"""

from __future__ import annotations

import copy
import json
import os
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

import oracles
from groups import (
    add,
    elements,
    group_json,
    pair_value,
    parse_q,
    reduce,
    scale,
    span,
    standard_q,
    unit,
    zero,
)


@dataclass
class Op:
    """One CLI call.  `check(result, results)` raises oracles.Mismatch;
    `result` is (payload, exit code, stderr) and `results` maps the name
    of every operation to its own result."""

    name: str
    argv: list
    check: Callable
    specs: tuple = ()
    escapes: bool = False      # fixed input that escapes cli.run today
    after: Optional[Callable] = None
    hostile: bool = False


@dataclass
class Writer:
    """Writes spec documents into one directory of the checkout."""

    root: str
    count: int = 0
    docs: dict = field(default_factory=dict)

    def spec(self, doc: dict) -> str:
        path = os.path.join(self.root, f"{self.count:04d}.json")
        self.count += 1
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        self.docs[path] = doc
        return path


TRIVIAL = {"domain": {"free": 0, "torsion": []}, "q": []}


def _beta(h) -> dict:
    return {"domain": {"free": 0, "torsion": list(h) + list(h)},
            "q": standard_q(h)}


def random_element(rng, group) -> tuple:
    free, tors = group
    return reduce(group, [rng.randint(-2, 2) for _ in range(free)]
                  + [rng.randrange(d) for d in tors])


def _lists(xs) -> list:
    return [list(x) for x in xs]


# ---------------------------------------------------------------------------
# spec constructions (paper, sections 3 to 5)


def even_spec(h, free, extra, gamma0, gamma1) -> dict:
    """Even grading: T = H x H^ on unit coordinates after `free` free ones."""
    group = (free, tuple(h) + tuple(h) + tuple(extra))
    return {"kind": "even", "group": group_json(group),
            "tgens": _lists(unit(group, free + i) for i in range(2 * len(h))),
            "beta": _beta(h) if h else TRIVIAL,
            "gamma0": _lists(gamma0), "gamma1": _lists(gamma1)}


def odd_t_spec(h, free, extra, t0, gamma) -> dict:
    """Odd grading with T = H x H^ in G x Z/2; a generator s is odd
    exactly when beta(t0, s) = -1."""
    group = (free, tuple(h) + tuple(h) + tuple(extra))
    q = parse_q(standard_q(h))
    tgens = []
    for i in range(2 * len(h)):
        e = [0] * (2 * len(h))
        e[i] = 1
        bit = int(pair_value(q, t0, e) != 0)
        tgens.append(list(unit(group, free + i)) + [bit])
    return {"kind": "odd_t", "group": group_json(group), "tgens": tgens,
            "beta": _beta(h), "gamma": _lists(gamma)}


def odd_g_spec(group, t0, u, gamma) -> dict:
    """Odd grading in G-form with a trivial quotient torus: any u with
    2u = 0 is a square root of the canonical element, which is 0."""
    return {"kind": "odd_g", "group": group_json(group), "t0": list(t0),
            "tbar_gens": [], "beta_bar": TRIVIAL, "u": list(u),
            "gamma": _lists(gamma)}


def p_spec(h, free, extra, gamma, g0) -> dict:
    group = (free, tuple(h) + tuple(h) + tuple(extra))
    return {"kind": "p", "group": group_json(group),
            "tgens": _lists(unit(group, free + i) for i in range(2 * len(h))),
            "beta": _beta(h) if h else TRIVIAL,
            "gamma": _lists(gamma), "g0": list(g0)}


def _involutions(h) -> list:
    grp = (0, tuple(h) + tuple(h))
    return [x for x in elements(grp) if any(x) and scale(grp, 2, x) == zero(grp)]


def _extra_for(rng, torus_order: int) -> tuple:
    """A random extra torsion factor keeping the grading group at most 64."""
    choices = [e for e in ((2,), (3,), (4,), (2, 2), (8,), (2, 4), (3, 4))
               if torus_order * _prod(e) <= 64]
    return rng.choice(choices)


def _prod(xs) -> int:
    out = 1
    for x in xs:
        out *= x
    return out


def random_even(rng, h, k0, k1) -> dict:
    extra = _extra_for(rng, _prod(h) ** 2)
    group = (0, tuple(h) + tuple(h) + extra)
    return even_spec(h, 0, extra, [random_element(rng, group) for _ in range(k0)],
                     [random_element(rng, group) for _ in range(k1)])


def random_odd_t(rng, h, k) -> dict:
    extra = _extra_for(rng, _prod(h) ** 2)
    group = (0, tuple(h) + tuple(h) + extra)
    return odd_t_spec(h, 0, extra, rng.choice(_involutions(h)),
                      [random_element(rng, group) for _ in range(k)])


def random_odd_g(rng, c, k) -> dict:
    extra = rng.choice(((2,), (4,), (3,), (2, 2), (2, 4)))
    group = (0, (2 * c,) + extra)
    t0 = reduce(group, (c,) + (0,) * len(extra))
    two_torsion = [x for x in elements(group) if scale(group, 2, x) == zero(group)]
    return odd_g_spec(group, t0, rng.choice(two_torsion),
                      [random_element(rng, group) for _ in range(k)])


def random_p(rng, h, k, free=None) -> dict:
    free = rng.choice((0, 1)) if free is None else free
    extra = rng.choice(((), (2,), (3,)))
    group = (free, tuple(h) + tuple(h) + extra)
    return p_spec(h, free, extra, [random_element(rng, group) for _ in range(k)],
                  random_element(rng, group))


def relabel_p(rng, doc: dict) -> dict:
    """An isomorphic copy of a P spec: labels moved within their cosets of
    T, shifted by g and shuffled, and g0 shifted by 2g."""
    group = (doc["group"]["free"], tuple(doc["group"]["torsion"]))
    torus = sorted(span(group, doc["tgens"]))
    g = random_element(rng, group)
    gamma = [add(group, add(group, x, g), rng.choice(torus)) for x in doc["gamma"]]
    rng.shuffle(gamma)
    return dict(doc, gamma=_lists(gamma),
                g0=list(add(group, doc["g0"], scale(group, 2, g))))


def fine_even(rng, m, n, h) -> dict:
    """The fine even grading of M(m, n) with torus H x H^, its labels
    shifted by a random element and shuffled within each block side."""
    ell = _prod(h)
    k0, k1 = m // ell, n // ell
    free = k0 + k1 - 1
    group = (free, tuple(h) + tuple(h))
    shift = random_element(rng, group)
    labels = [add(group, x, shift)
              for x in [zero(group)] + [unit(group, i) for i in range(free)]]
    gamma0, gamma1 = labels[:k0], labels[k0:]
    rng.shuffle(gamma0)
    rng.shuffle(gamma1)
    return even_spec(h, free, (), gamma0, gamma1)


def fine_odd(rng, n, h) -> dict:
    """A fine odd grading of M(n, n): |H| = 2 ell, k = n / ell blocks,
    parity given by a random involution (all are in one orbit here)."""
    k = n // (_prod(h) // 2)
    group = (k - 1, tuple(h) + tuple(h))
    shift = random_element(rng, group)
    gamma = [add(group, x, shift)
             for x in [zero(group)] + [unit(group, i) for i in range(k - 1)]]
    rng.shuffle(gamma)
    return odd_t_spec(h, k - 1, (), rng.choice(_involutions(h)), gamma)


def fine_p(rng, n, ell) -> dict:
    """A fine grading of P(n): T = (Z/2)^(2 ell), k = (n+1)/2^ell blocks;
    labels shifted by g and g0 by 2g, which gives the same grading."""
    k = (n + 1) // 2 ** ell
    h = (2,) * ell
    group = (k + 1, h + h)
    g = random_element(rng, group)
    gamma = [add(group, unit(group, 1 + i), g) for i in range(k)]
    rng.shuffle(gamma)
    return p_spec(h, k + 1, (), gamma, add(group, unit(group, 0), scale(group, 2, g)))


# ---------------------------------------------------------------------------
# the documented examples of docs/spec-format.md and their mutations

EXAMPLES = {
    "even": {"kind": "even", "group": {"free": 1, "torsion": [2, 2]},
             "tgens": [[0, 1, 0], [0, 0, 1]],
             "beta": {"domain": {"free": 0, "torsion": [2, 2]},
                      "q": [["0", "1/2"], ["1/2", "0"]]},
             "gamma0": [[0, 0, 0]], "gamma1": [[1, 0, 0]]},
    "odd_t": {"kind": "odd_t", "group": {"free": 0, "torsion": [4]},
              "tgens": [[2, 0], [0, 1]],
              "beta": {"domain": {"free": 0, "torsion": [2, 2]},
                       "q": [["0", "1/2"], ["1/2", "0"]]},
              "gamma": [[0]]},
    "odd_g": {"kind": "odd_g", "group": {"free": 0, "torsion": [4]},
              "t0": [2], "tbar_gens": [],
              "beta_bar": {"domain": {"free": 0, "torsion": []}, "q": []},
              "u": [2], "gamma": [[0]]},
    "p": {"kind": "p", "group": {"free": 3, "torsion": []}, "tgens": [],
          "beta": {"domain": {"free": 0, "torsion": []}, "q": []},
          "gamma": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "g0": [0, 0, 0]},
}

# Inputs on which cli._beta builds the Bicharacter outside its try block,
# so a ValueError escapes cli.run: a non-square q, or an infinite domain.
ESCAPES = [
    ("even", "beta", {"domain": {"free": 0, "torsion": [2, 2]},
                      "q": [["0", "1/2"]]}),
    ("odd_t", "beta", {"domain": {"free": 1, "torsion": [2, 2]},
                       "q": [["0", "1/2"], ["1/2", "0"]]}),
    ("odd_g", "beta_bar", {"domain": {"free": 0, "torsion": []}, "q": [["0"]]}),
    ("p", "beta", {"domain": {"free": 0, "torsion": [2]}, "q": []}),
]

_LIST_FIELDS = ("tgens", "gamma0", "gamma1", "gamma", "tbar_gens")
_POINT_FIELDS = ("t0", "u", "g0")
_JUNK = (None, "x", 7, [], {}, [["a"]], 2.5)


def _coord_slots(doc) -> list:
    slots = []
    for key in _LIST_FIELDS:
        for i, x in enumerate(doc.get(key, ())):
            slots += [(doc[key][i], j) for j in range(len(x))]
    for key in _POINT_FIELDS:
        if key in doc:
            slots += [(doc[key], j) for j in range(len(doc[key]))]
    return slots


def mutations(doc: dict) -> tuple:
    """The fixed mix of mutation kinds applied to one example.  The mix,
    not the seed, sets how many mutants stay well formed, which keeps the
    slice's cost the same for every seed."""
    beta_key = "beta_bar" if doc["kind"] == "odd_g" else "beta"
    kinds = ("coord", "coord", "drop", "dup", "torsion", "retype", "delete", "kind")
    return kinds + (("qentry", "domain") if doc[beta_key]["q"] else ())


def mutate(rng, doc: dict, op: str) -> dict:
    """One seeded mutation of kind `op`.  None of them changes the shape of
    the bicharacter or makes its domain infinite, so none reaches the
    cli._beta escape."""
    doc = copy.deepcopy(doc)
    beta_key = "beta_bar" if doc["kind"] == "odd_g" else "beta"
    if op == "coord":
        slots = _coord_slots(doc)
        if slots:
            target, j = rng.choice(slots)
            target[j] = rng.randint(-3, 5)
    elif op == "drop":
        keys = [k for k in _LIST_FIELDS if doc.get(k)]
        key = rng.choice(keys)
        doc[key].pop(rng.randrange(len(doc[key])))
    elif op == "dup":
        keys = [k for k in ("gamma0", "gamma1", "gamma") if doc.get(k)]
        key = rng.choice(keys)
        doc[key].append(list(rng.choice(doc[key])))
    elif op == "torsion":
        tors = doc["group"]["torsion"]
        if tors and rng.random() < 0.7:
            tors[rng.randrange(len(tors))] = rng.choice((2, 3, 4, 6))
        else:
            tors.append(rng.choice((2, 3)))
    elif op == "retype":
        key = rng.choice(sorted(k for k in doc if k != "kind"))
        doc[key] = copy.deepcopy(rng.choice(_JUNK))
    elif op == "delete":
        del doc[rng.choice(sorted(doc))]
    elif op == "kind":
        doc["kind"] = rng.choice(sorted(k for k in EXAMPLES if k != doc["kind"]))
    elif op == "qentry":
        q = doc[beta_key]["q"]
        q[rng.randrange(len(q))][rng.randrange(len(q))] = rng.choice(
            ("0", "1/2", "1/4", "3/4", "1/3", "2/3", "5"))
    else:
        tors = doc[beta_key]["domain"]["torsion"]
        tors[rng.randrange(len(tors))] = rng.choice((2, 3, 4))
    return doc


def _hostile_op(w: Writer, name: str, doc: dict, escapes: bool = False) -> Op:
    def check(result, results):
        payload, code, err = result
        oracles.check_hostile(doc, payload, code, err)
    path = w.spec(doc)
    return Op(name, ["verify", "-f", path], check, (doc,), escapes=escapes,
              hostile=True)


def _verify_op(w: Writer, name: str, doc: dict) -> Op:
    def check(result, results):
        payload, code, _ = result
        if doc["kind"] == "p":
            oracles.check_verify_p(doc, payload, code)
        else:
            oracles.check_verify_matrix(doc, payload, code)
    return Op(name, ["verify", "-f", w.spec(doc)], check, (doc,))


# ---------------------------------------------------------------------------
# verify

EVEN_SHAPES = [((), 1, 1), ((), 2, 1), ((), 2, 3), ((), 4, 4), ((2,), 1, 1),
               ((2,), 2, 1), ((2,), 2, 2), ((3,), 1, 1), ((4,), 1, 1),
               ((2, 2), 1, 1)]
ODD_T_SHAPES = [((2,), 1), ((2,), 2), ((2,), 3), ((2,), 4), ((4,), 1),
                ((4,), 2), ((2, 2), 1), ((2, 2), 2)]
ODD_G_SHAPES = [(1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2), (2, 3), (2, 4)]
LARGE_EVEN = [(4, 4, ()), (4, 4, (2,)), (4, 4, (2, 2)), (4, 4, (4,)),
              (6, 6, ()), (6, 6, (2,))]
LARGE_ODD = [(6, (2,))]


def verify_ops(rng, w: Writer) -> list:
    ops = []
    for h, k0, k1 in EVEN_SHAPES:
        ops.append(_verify_op(w, f"even-{h}-{k0}-{k1}", random_even(rng, h, k0, k1)))
    for h, k in ODD_T_SHAPES:
        ops.append(_verify_op(w, f"odd_t-{h}-{k}", random_odd_t(rng, h, k)))
    for c, k in ODD_G_SHAPES:
        ops.append(_verify_op(w, f"odd_g-{c}-{k}", random_odd_g(rng, c, k)))
    for m, n, h in LARGE_EVEN:
        ops.append(_verify_op(w, f"fine-even-{m}-{n}-{h}", fine_even(rng, m, n, h)))
    for n, h in LARGE_ODD:
        ops.append(_verify_op(w, f"fine-odd-{n}-{h}", fine_odd(rng, n, h)))
    for kind in ("even", "odd_t", "odd_g"):
        for i, op in enumerate(mutations(EXAMPLES[kind])):
            ops.append(_hostile_op(w, f"mutant-{kind}-{op}-{i}",
                                   mutate(rng, EXAMPLES[kind], op)))
    for kind, key, beta in ESCAPES:
        doc = copy.deepcopy(EXAMPLES[kind])
        doc[key] = beta
        ops.append(_hostile_op(w, f"escape-{kind}", doc, escapes=True))
    return ops


# ---------------------------------------------------------------------------
# periplectic

P_SHAPES = [((), 3), ((), 4), ((2,), 2)]
P_ROUNDS = 2
# Random P specs cost what their label coincidences make them cost, so
# the templates are drawn once, apart from the seed, and each seed
# relabels them (relabel_p), which keeps every template's cost.
P_TEMPLATE_SEED = 2017
P_FINE = [(3, 0), (3, 1), (3, 2), (5, 0)]


def _p_pair(w: Writer, name: str, doc: dict, invariants=None) -> list:
    verify = _verify_op(w, f"verify-{name}", doc)

    def check(result, results):
        payload, code, _ = result
        vpayload = results[verify.name][0]
        support = [tuple(deg) for deg, _ in vpayload["dims"]]
        oracles.check_ugroup(doc, payload, code, support=support,
                             invariants=invariants)
    ugroup = Op(f"ugroup-{name}", ["ugroup", "-f", verify.argv[2]], check, (doc,))
    return [verify, ugroup]


def periplectic_ops(rng, w: Writer) -> list:
    ops = []
    templates = random.Random(P_TEMPLATE_SEED)
    for r in range(P_ROUNDS):
        for h, k in P_SHAPES:
            doc = relabel_p(rng, random_p(templates, h, k))
            ops += _p_pair(w, f"p-{h}-{k}-{r}", doc)
    for n, ell in P_FINE:
        doc = fine_p(rng, n, ell)
        ops += _p_pair(w, f"fine-p-{n}-{ell}", doc, oracles.p_fine_invariants(doc))
    for i, op in enumerate(mutations(EXAMPLES["p"])):
        ops.append(_hostile_op(w, f"mutant-p-{op}-{i}", mutate(rng, EXAMPLES["p"], op)))
    return ops


# ---------------------------------------------------------------------------
# classify

FINE_EVEN_FIXED = [(2, 2), (4, 4)]
FINE_EVEN_POOL = [(1, 1), (1, 2), (1, 3), (2, 3), (2, 4), (3, 3), (3, 6), (4, 6),
                  (4, 8), (6, 6), (6, 9), (8, 8), (8, 12), (9, 9), (12, 12),
                  (12, 18), (16, 16)]
FINE_EVEN_SAMPLE = 6
FINE_ODD = [1, 2, 3, 5, 6, 7, 9, 11]
# descriptors handed on to `ugroup`: every fine grading of these sizes
UGROUP_SOURCES = {("even", (2, 2)): 2, ("even", (4, 4)): 4, ("odd", (2,)): 3,
                  ("odd", (3,)): 2}
FINE_P_SAMPLE = 6
M11_PAIRS = [("even", "even", "assoc", 5), ("even", "even", "lie", 5),
             ("odd", "odd", "assoc", 7), ("odd", "odd", "lie", 7),
             ("even", "odd", "assoc", 2), ("even", "odd", "lie", 2)]


def _fine_op(w: Writer, family: str, sizes) -> list:
    """`gradekit fine`, plus `ugroup` on the descriptors it returns when
    the sizes are among UGROUP_SOURCES."""
    ugroup_count = UGROUP_SOURCES.get((family, tuple(sizes)), 0)
    name = f"fine-{family}-" + "-".join(map(str, sizes))
    paths = [os.path.join(w.root, f"{name}-{i}.json") for i in range(ugroup_count)]

    def check(result, results):
        payload, code, _ = result
        if family == "even":
            oracles.check_fine_even(*sizes, payload, code)
        elif family == "odd":
            oracles.check_fine_odd(*sizes, payload, code)
        else:
            oracles.check_fine_p(*sizes, payload, code)

    def after(result):
        for path, desc in zip(paths, result[0]["descriptors"]):
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(desc["spec"], handle)

    fine = Op(name, ["fine", family] + [str(s) for s in sizes], check,
              after=after if paths else None)
    ops = [fine]
    for i, path in enumerate(paths):
        def ucheck(result, results, i=i):
            desc = results[name][0]["descriptors"][i]
            spec = desc["spec"]
            _, dims, _, _ = oracles.expected_matrix_dims(spec)
            oracles.check_ugroup(spec, result[0], result[1],
                                 support={deg for deg, _ in dims},
                                 invariants=desc["invariants"])
        ops.append(Op(f"ugroup-{name}-{i}", ["ugroup", "-f", path], ucheck))
    return ops


def _iso_op(w: Writer, name: str, s1: dict, s2: dict, mode: str, truth) -> Op:
    def check(result, results):
        payload, code, _ = result
        oracles.check_iso(s1, s2, mode, truth(), payload, code)
    return Op(name, ["iso", "-a", w.spec(s1), "-b", w.spec(s2), "--mode", mode],
              check, (s1, s2))


def m11_universe() -> tuple:
    g22 = (0, (2, 2))
    elems = elements(g22)
    evens = [even_spec((), 0, (2, 2), [a], [b]) for a in elems for b in elems]
    odds = [odd_g_spec(g22, t0, u, [c]) for t0 in elems[1:]
            for u in elems for c in elems]
    return evens, odds


def _constructed_pair(rng, family: str, mode: str, shape, move: str):
    """A pair over a finite group built from one random spec of the given
    shape by a shift, a coset change, a block permutation, a swap, the
    superadjoint, u -> u + t0, 2g + g0 = g0', or a random perturbation."""
    if family == "even":
        s1 = random_even(rng, *shape)
    elif family == "odd_t":
        s1 = random_odd_t(rng, *shape)
    elif family == "odd_g":
        s1 = random_odd_g(rng, *shape)
    else:
        s1 = random_p(rng, *shape, free=0)
    d = oracles.Division(s1)
    group = d.group
    keys = [k for k in ("gamma0", "gamma1", "gamma") if k in s1]
    s2 = oracles.superadjoint(s1) if move == "superadjoint" else copy.deepcopy(s1)
    g = random_element(rng, group)
    if move in ("shift", "superadjoint"):
        for k in keys:
            s2[k] = _lists(add(group, x, g) for x in s2[k])
        if family == "p":
            s2["g0"] = list(add(group, s2["g0"], scale(group, 2, g)))
    elif move == "coset":
        key = rng.choice(keys)
        i = rng.randrange(len(s2[key]))
        s2[key][i] = list(add(group, s2[key][i], rng.choice(sorted(d.sub))))
    elif move == "permute":
        for k in keys:
            rng.shuffle(s2[k])
    elif move == "swap":
        s2["gamma0"], s2["gamma1"] = s2["gamma1"], s2["gamma0"]
    elif move == "u+t0":
        s2["u"] = list(add(group, s2["u"], s2["t0"]))
    else:
        key = rng.choice(keys + (["g0"] if family == "p" else []))
        if key == "g0":
            s2["g0"] = list(add(group, s2["g0"], g))
        else:
            i = rng.randrange(len(s2[key]))
            s2[key][i] = list(add(group, s2[key][i], g))
    return s1, s2


# (family, mode, shape, construction) of the pairs over larger groups;
# fixed, so that every seed decides pairs of the same sizes
LARGE_PAIRS = [("even", "assoc", ((2,), 2, 2), "shift"),
               ("even", "assoc", ((), 3, 3), "swap"),
               ("even", "assoc", ((3,), 1, 1), "coset"),
               ("even", "assoc", ((2,), 1, 2), "permute"),
               ("even", "assoc", ((4,), 1, 1), "perturb"),
               ("even", "lie", ((2,), 2, 2), "superadjoint"),
               ("even", "lie", ((), 3, 3), "perturb"),
               ("odd_t", "assoc", ((2,), 3), "shift"),
               ("odd_t", "assoc", ((2, 2), 1), "coset"),
               ("odd_t", "assoc", ((2,), 2), "perturb"),
               ("odd_t", "lie", ((4,), 1), "superadjoint"),
               ("odd_g", "assoc", (1, 2), "u+t0"),
               ("odd_g", "assoc", (2, 3), "permute"),
               ("odd_g", "lie", (2, 2), "superadjoint"),
               ("p", "p", ((), 3), "shift"),
               ("p", "p", ((2,), 2), "coset"),
               ("p", "p", ((), 4), "perturb")]


def classify_ops(rng, w: Writer) -> list:
    ops = []
    even_sizes = FINE_EVEN_FIXED + rng.sample(FINE_EVEN_POOL, FINE_EVEN_SAMPLE)
    for m, n in even_sizes:
        ops += _fine_op(w, "even", (m, n))
    for n in FINE_ODD:
        ops += _fine_op(w, "odd", (n,))
    for n in rng.sample(range(2, 41), FINE_P_SAMPLE):
        ops += _fine_op(w, "p", (n,))
    evens, odds = m11_universe()
    pools = {"even": evens, "odd": odds}
    for fam1, fam2, mode, count in M11_PAIRS:
        for i in range(count):
            s1, s2 = rng.choice(pools[fam1]), rng.choice(pools[fam2])
            ops.append(_iso_op(w, f"m11-{fam1}-{fam2}-{mode}-{i}", s1, s2, mode,
                               lambda s1=s1, s2=s2, mode=mode:
                               oracles.m11_isomorphic(s1, s2, mode)))
    for i, (family, mode, shape, move) in enumerate(LARGE_PAIRS):
        s1, s2 = _constructed_pair(rng, family, mode, shape, move)
        ops.append(_iso_op(w, f"pair-{family}-{mode}-{move}-{i}", s1, s2, mode,
                           lambda s1=s1, s2=s2, mode=mode, move=move:
                           _pair_truth(s1, s2, mode, move)))
    return ops


def _pair_truth(s1, s2, mode, move) -> bool:
    """The construction's verdict where it has one, else brute force; a
    construction that should give an isomorphism must agree with it."""
    brute = oracles.brute_isomorphic(s1, s2, mode)
    if move != "perturb":
        oracles.expect(brute, f"oracle fault: {move} pair judged non-isomorphic")
    return brute


WORKLOADS = {"verify": verify_ops, "periplectic": periplectic_ops,
             "classify": classify_ops}
