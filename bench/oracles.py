"""Checks of gradekit's CLI payloads against computations made apart from it.

Every function here takes spec documents (plain JSON objects) and the
(payload, exit code) a `gradekit.cli.run` call returned, and raises
Mismatch when the output is wrong.  Nothing is imported from gradekit:
groups, supports, dimensions, counts, automorphism orbits and
isomorphism verdicts are recomputed from the paper's descriptions with
the small helpers in `groups`.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, isqrt, prod

from groups import (
    abelian_group_count,
    abelian_groups,
    add,
    coset_multiset,
    elements,
    group_of,
    invariant_factors,
    neg,
    order_of,
    pair_value,
    parse_q,
    reduce,
    scale,
    span,
    two_adic_valuation,
    zero,
)


class Mismatch(AssertionError):
    """An output disagrees with the independent computation."""


def expect(cond, message: str) -> None:
    if not cond:
        raise Mismatch(message)


def _domain_order(beta) -> int:
    free, tors = group_of(beta["domain"])
    expect(free == 0, "bicharacter domain is infinite")
    return prod(tors)


def _root(order: int) -> int:
    d = isqrt(order)
    expect(d * d == order, f"torus order {order} is not a square")
    return d


def _dims_table(payload, with_parity: bool = True) -> dict:
    if with_parity:
        return {(tuple(deg), parity): dim for deg, parity, dim in payload["dims"]}
    return {tuple(deg): dim for deg, dim in payload["dims"]}


# ---------------------------------------------------------------------------
# division data: the torus, its pairing and the block labels of a spec


class Division:
    """T inside the ambient group, beta on T, and the labels of one spec.

    `sub` is the subgroup of the label group whose cosets the
    isomorphism criterion compares: T itself for even and periplectic
    specs, and the even part of T for odd ones.
    """

    def __init__(self, spec: dict):
        self.kind = spec["kind"]
        g = group_of(spec["group"])
        self.group = g
        if self.kind in ("even", "p"):
            ambient, tgens = g, spec["tgens"]
            q = parse_q(spec["beta"]["q"])
        elif self.kind == "odd_t":
            ambient, tgens = (g[0], g[1] + (2,)), spec["tgens"]
            q = parse_q(spec["beta"]["q"])
        else:
            # with a trivial quotient torus, T = {0, t0, (u,1), (u+t0,1)} in
            # G x Z/2 and the only nondegenerate alternating pairing on it
            expect(not spec["tbar_gens"], "odd_g oracle needs an empty tbar")
            expect(scale(g, 2, spec["u"]) == zero(g), "odd_g oracle needs 2u = 0")
            ambient = (g[0], g[1] + (2,))
            tgens = [tuple(spec["t0"]) + (0,), tuple(spec["u"]) + (1,)]
            half = Fraction(1, 2)
            q = ((Fraction(0), half), (half, Fraction(0)))
        self.ambient = ambient
        self.tgens = [reduce(ambient, t) for t in tgens]
        self.q = q
        self.torus = span(ambient, self.tgens)
        expect(len(self.torus) == prod(
            order_of(ambient, t) for t in self.tgens), "torus generators collapse")
        if self.kind == "even":
            self.labels = ([reduce(g, x) for x in spec["gamma0"]],
                           [reduce(g, x) for x in spec["gamma1"]])
        else:
            self.labels = ([reduce(g, x) for x in spec["gamma"]],)
        if self.kind.startswith("odd"):
            self.sub = {t[:-1] for t in self.torus if t[-1] == 0}
        else:
            self.sub = set(self.torus)
        self.g0 = reduce(g, spec["g0"]) if self.kind == "p" else None

    def beta(self, x, y) -> Fraction:
        return pair_value(self.q, self.torus[x], self.torus[y])

    def same_pairing(self, other: "Division", invert: bool) -> bool:
        if set(self.torus) != set(other.torus):
            return False
        sign = -1 if invert else 1
        return all(other.beta(x, y) == (sign * self.q[i][j]) % 1
                   for i, x in enumerate(self.tgens)
                   for j, y in enumerate(self.tgens))


def superadjoint(spec: dict) -> dict:
    """The spec of the grading carried over by x -> -x^st (paper, section 2)."""
    g = group_of(spec["group"])
    out = dict(spec)

    def inv(beta):
        return {"domain": beta["domain"],
                "q": [[str(-v % 1) for v in row] for row in parse_q(beta["q"])]}

    for key in ("gamma0", "gamma1", "gamma"):
        if key in spec:
            out[key] = [list(neg(g, x)) for x in spec[key]]
    if spec["kind"] == "odd_g":
        out["beta_bar"] = inv(spec["beta_bar"])
        out["u"] = list(neg(g, spec["u"]))
    else:
        out["beta"] = inv(spec["beta"])
    return out


def _family(spec: dict) -> str:
    return {"even": "even", "odd_t": "odd", "odd_g": "odd", "p": "p"}[spec["kind"]]


def witness_holds(s1: dict, s2: dict, g, swap: bool, delta: int) -> bool:
    """Whether the shift g (with the block swap and the superadjoint when
    asked) carries the grading of s1 onto that of s2."""
    a = Division(superadjoint(s1) if delta == -1 else s1)
    b = Division(s2)
    group = b.group
    if a.group != group or _family(s1) != _family(s2):
        return False
    g = reduce(group, g)
    if not a.same_pairing(b, invert=False):
        return False
    shifted = [[add(group, x, g) for x in labels] for labels in a.labels]
    target = list(b.labels)
    if swap:
        if len(shifted) != 2 or len(shifted[0]) != len(shifted[1]):
            return False
        target.reverse()
    if [len(x) for x in shifted] != [len(x) for x in target]:
        return False
    if any(coset_multiset(group, a.sub, x) != coset_multiset(group, b.sub, y)
           for x, y in zip(shifted, target)):
        return False
    if a.kind == "p":
        return add(group, scale(group, 2, g), a.g0) == b.g0
    return True


def brute_isomorphic(s1: dict, s2: dict, mode: str) -> bool:
    """Graded isomorphism by trying every shift of a finite grading group."""
    if _family(s1) != _family(s2):
        return False
    group = group_of(s1["group"])
    swaps = (False, True) if s1["kind"] == "even" else (False,)
    deltas = (1, -1) if mode == "lie" else (1,)
    return any(witness_holds(s1, s2, g, swap, delta)
               for delta in deltas for swap in swaps for g in elements(group))


# ---------------------------------------------------------------------------
# the conjugation search on M(1,1)

_EVEN_UNITS = {(0, 0): [1, 0, 0, 0], (0, 1): [0, 1, 0, 0],
               (1, 0): [0, 0, 1, 0], (1, 1): [0, 0, 0, 1]}


def m11_family(spec: dict) -> dict:
    """{(degree, parity): spanning vectors} of a grading on M(1,1).

    Vectors are 2x2 matrices flattened row by row.  Odd specs use the
    realization I, diag(1,-1), [[0,1],[1,0]], [[0,1],[-1,0]] of the
    division grading on T = {0, t0, (u,1), (u+t0,1)}.
    """
    d = Division(spec)
    g = d.group
    fam: dict = {}
    if d.kind == "even":
        (a,), (b,) = d.labels
        lab = (a, b)
        for (i, j), vec in _EVEN_UNITS.items():
            key = (add(g, lab[i], neg(g, lab[j])), i ^ j)
            fam.setdefault(key, []).append(vec)
        return fam
    t0, u1 = d.tgens
    amb = d.ambient
    mats = {zero(amb): [1, 0, 0, 1], t0: [1, 0, 0, -1],
            u1: [0, 1, 1, 0], add(amb, u1, t0): [0, 1, -1, 0]}
    for t, vec in mats.items():
        fam.setdefault((t, t[-1]), []).append(vec)
    return fam


def m11_superadjoint_family(fam: dict) -> dict:
    """Components under x -> -x^st, (a b; c d)^st = (a -c; b d)."""
    return {key: [[v[0], -v[2], v[1], v[3]] for v in vecs]
            for key, vecs in fam.items()}


def _rref(rows):
    mat = [[Fraction(x) for x in r] for r in rows]
    pivots, rank = [], 0
    for col in range(len(mat[0]) if mat else 0):
        pr = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pr is None:
            continue
        mat[rank], mat[pr] = mat[pr], mat[rank]
        mat[rank] = [x / mat[rank][col] for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                f = mat[r][col]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[rank])]
        pivots.append(col)
        rank += 1
    return mat[:rank], pivots


def _residual(echelon, pivots, vec):
    out = [Fraction(x) for x in vec]
    for row, p in zip(echelon, pivots):
        if out[p]:
            f = out[p]
            out = [x - f * y for x, y in zip(out, row)]
    return out


def _poly_trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_rem(a, b):
    a = _poly_trim(a)
    while len(a) >= len(b):
        f = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] -= f * c
        a = _poly_trim(a)
    return a


def _common_nonzero_root(polys) -> bool:
    live = [p for p in (_poly_trim(p) for p in polys) if p]
    if not live:
        return True
    g = live[0]
    for p in live[1:]:
        while p:
            g, p = p, _poly_rem(g, p)
    while g and g[0] == 0:
        g = g[1:]
    return len(g) > 1


def _conjugation_carries(fam1, fam2, parts) -> bool:
    if set(fam1) != set(fam2) or any(len(fam1[k]) != len(fam2[k]) for k in fam1):
        return False
    polys = []
    for key, vecs in fam1.items():
        echelon, pivots = _rref(fam2[key])
        for v in vecs:
            res = [_residual(echelon, pivots, part) for part in parts(v)]
            polys.extend([res[0][c], res[1][c], res[2][c]] for c in range(4))
    return _common_nonzero_root(polys)


def _diagonal_parts(v):
    # diag(r, 1) scales e12 by r and e21 by 1/r
    return [0, 0, v[2], 0], [v[0], 0, 0, v[3]], [0, v[1], 0, 0]


def _antidiagonal_parts(v):
    # [[0, 1], [r, 0]] exchanges the corners and the two diagonal entries
    return [0, v[2], 0, 0], [v[3], 0, 0, v[0]], [0, 0, v[1], 0]


def m11_isomorphic(s1: dict, s2: dict, mode: str) -> bool:
    """Some conjugation of M(1,1), after x -> -x^st in the Lie case, maps
    every component of s1's grading onto the same-degree one of s2's."""
    f1, f2 = m11_family(s1), m11_family(s2)
    sources = [f1, m11_superadjoint_family(f1)] if mode == "lie" else [f1]
    return any(_conjugation_carries(f, f2, parts) for f in sources
               for parts in (_diagonal_parts, _antidiagonal_parts))


def check_iso(s1: dict, s2: dict, mode: str, expected: bool, payload, code) -> None:
    """The verdict matches `expected`, and a witness, if any, re-applies."""
    expect(isinstance(payload, dict), f"iso gave no payload (exit {code})")
    expect(payload.get("mode") == mode, "iso payload names another mode")
    if not expected:
        expect(code == 1 and payload["verdict"] == "non-isomorphic",
               f"iso said {payload.get('verdict')}, expected non-isomorphic")
        return
    expect(code == 0 and payload["verdict"] == "isomorphic",
           f"iso said {payload.get('verdict')}, expected isomorphic")
    w = payload["witness"]
    expect(w["delta"] in (1, -1) and (mode == "lie" or w["delta"] == 1),
           f"witness sign {w['delta']} is not allowed in mode {mode}")
    expect(witness_holds(s1, s2, w["g"], bool(w["swap"]), w["delta"]),
           f"witness {w} does not carry one grading onto the other")


# ---------------------------------------------------------------------------
# verify


def expected_matrix_dims(spec: dict) -> tuple:
    """(sizes, {(base degree, parity): dim}, even degrees, odd degrees) of
    an even or odd_t spec, from its labels and torus."""
    d = Division(spec)
    g = d.group
    root = _root(len(d.torus))
    dims: dict = {}
    full_even, full_odd = set(), set()
    if d.kind == "even":
        gamma0, gamma1 = d.labels
        sides = [(x, 0) for x in gamma0] + [(x, 1) for x in gamma1]
        sizes = [len(gamma0) * root, len(gamma1) * root]
        for (gi, si), (gj, sj) in itertools.product(sides, repeat=2):
            diff = add(g, gi, neg(g, gj))
            for t in d.torus:
                deg = add(g, diff, t)
                key = (deg, si ^ sj)
                dims[key] = dims.get(key, 0) + 1
                (full_odd if si ^ sj else full_even).add(deg)
        return sizes, dims, full_even, full_odd
    (gamma,) = d.labels
    expect(len(gamma) * root % 2 == 0, "odd spec with an odd matrix size")
    half = len(gamma) * root // 2
    amb = d.ambient
    for gi, gj in itertools.product(gamma, repeat=2):
        block = add(g, gi, neg(g, gj)) + (0,)
        for t in d.torus:
            deg = add(amb, block, t)
            key = (deg[:-1], deg[-1])
            dims[key] = dims.get(key, 0) + 1
            (full_odd if deg[-1] else full_even).add(deg)
    return [half, half], dims, full_even, full_odd


def check_verify_matrix(spec: dict, payload, code) -> None:
    expect(code == 0 and isinstance(payload, dict)
           and payload.get("verdict") == "pass",
           f"verify did not pass (exit {code}): {payload}")
    expect(payload["failures"] == [], "a passing verify lists failures")
    expect(payload["kind"] == _family(spec), "verify reports the wrong kind")
    table = _dims_table(payload)
    if spec["kind"] == "odd_g":
        n = len(spec["gamma"]) * _root(_domain_order(spec["beta_bar"]))
        expect(payload["sizes"] == [n, n], f"sizes {payload['sizes']} != {[n, n]}")
    else:
        sizes, dims, evens, odds = expected_matrix_dims(spec)
        expect(payload["sizes"] == sizes, f"sizes {payload['sizes']} != {sizes}")
        expect(table == dims, "component dimensions differ from the labels and torus")
        expect([tuple(x) for x in payload["support"]]
               == sorted({deg for deg, _ in dims}), "support differs")
        expect([tuple(x) for x in payload["support_even"]] == sorted(evens),
               "even support differs")
        expect([tuple(x) for x in payload["support_odd"]] == sorted(odds),
               "odd support differs")
    total = sum(payload["sizes"]) ** 2
    expect(sum(table.values()) == total,
           f"dimensions sum to {sum(table.values())}, expected {total}")


def p_ambient_support(spec: dict) -> set:
    d = Division(spec)
    g = d.group
    (gamma,) = d.labels
    labels = gamma + [add(g, d.g0, neg(g, x)) for x in gamma]
    return {add(g, add(g, a, neg(g, b)), t)
            for a in labels for b in labels for t in d.torus}


def check_verify_p(spec: dict, payload, code) -> None:
    expect(code == 0 and isinstance(payload, dict)
           and payload.get("verdict") == "pass",
           f"verify did not pass (exit {code}): {payload}")
    expect(payload["failures"] == [], "a passing verify lists failures")
    n1 = len(spec["gamma"]) * _root(_domain_order(spec["beta"]))
    expect(payload["kind"] == "p" and payload["n"] == n1 - 1,
           f"n is {payload.get('n')}, expected {n1 - 1}")
    dim = 2 * n1 * n1 - 1
    expect(payload["dimension"] == dim, f"dimension {payload['dimension']} != {dim}")
    table = _dims_table(payload, with_parity=False)
    expect(sum(table.values()) == dim, "component dimensions do not add up")
    expect(all(v > 0 for v in table.values()), "an empty component is listed")
    z = {"-1": n1 * (n1 + 1) // 2, "0": n1 * n1 - 1, "1": n1 * (n1 - 1) // 2}
    expect(payload["z_dims"] == z, f"Z-layers {payload['z_dims']} != {z}")
    ambient = p_ambient_support(spec)
    expect(set(table) <= ambient, "a degree lies outside the ambient support")


# ---------------------------------------------------------------------------
# universal groups


def check_ugroup(spec: dict, payload, code, support=None,
                 invariants=None) -> None:
    """The labels embed the support into U so that every sum of labels that
    is a label again maps back to the sum in the grading group."""
    expect(code == 0 and isinstance(payload, dict) and "universal" in payload,
           f"ugroup failed (exit {code}): {payload}")
    u = group_of(payload["universal"])
    expect(payload["invariants"] == invariant_factors(u[1]) + [0] * u[0],
           "invariants do not match the universal group")
    if invariants is not None:
        expect(payload["invariants"] == invariants,
               f"universal group {payload['invariants']} != {invariants}")
    g = group_of(spec["group"])
    labels = {tuple(deg): tuple(c) for deg, c in payload["labels"]}
    expect(len(labels) == len(payload["labels"]), "a degree is labelled twice")
    expect(all(reduce(u, c) == c for c in labels.values()), "unreduced label")
    expect(len(set(labels.values())) == len(labels), "two degrees share a label")
    if support is not None:
        expect(set(labels) == set(support), "labels do not cover the support")
    if zero(g) in labels:
        expect(labels[zero(g)] == zero(u), "the zero degree is not labelled 0")
    back = {c: deg for deg, c in labels.items()}
    for (s1, c1), (s2, c2) in itertools.product(labels.items(), repeat=2):
        s3 = back.get(add(u, c1, c2))
        if s3 is not None:
            expect(add(g, s1, s2) == s3,
                   f"labels of {s1} and {s2} add up to the label of {s3}")


# ---------------------------------------------------------------------------
# fine gradings


def _divisors(n: int) -> list:
    return [d for d in range(1, n + 1) if n % d == 0]


def _torus_invariants(h) -> list:
    return invariant_factors(list(h) + list(h))


def check_fine_even(m: int, n: int, payload, code) -> None:
    expect(code == 0 and payload["family"] == "even", f"fine even failed: {payload}")
    ells = _divisors(gcd(m, n))
    want = sum(abelian_group_count(ell) for ell in ells)
    expect(payload["count"] == want == len(payload["descriptors"]),
           f"fine even {m} {n} lists {payload['count']}, expected {want}")
    seen: dict = {}
    for d in payload["descriptors"]:
        ell = prod(d["h"])
        k0, k1 = m // ell, n // ell
        expect(ell in ells and d["blocks"] == [k0, k1], f"bad blocks in {d}")
        expect(d["invariants"] == _torus_invariants(d["h"]) + [0] * (k0 + k1 - 1),
               f"universal group of {d['h']} is {d['invariants']}")
        seen.setdefault(ell, []).append(tuple(sorted(d["h"])))
    for ell in ells:
        expect(sorted(seen.get(ell, [])) == abelian_groups(ell),
               f"groups of order {ell} are not each listed once")


def _isometries(h2) -> list:
    """Every automorphism of H2 x H2^ preserving the standard pairing, as
    the images of the unit generators."""
    cyc = tuple(h2) + tuple(h2)
    grp = (0, cyc)
    p = len(h2)
    q = [[Fraction(0)] * (2 * p) for _ in range(2 * p)]
    for i, hi in enumerate(h2):
        q[i][p + i] = Fraction(1, hi)
        q[p + i][i] = Fraction(-1, hi) % 1
    elems = elements(grp)
    out = []

    def extend(images):
        i = len(images)
        if i == len(cyc):
            out.append(tuple(images))
            return
        for x in elems:
            if scale(grp, cyc[i], x) != zero(grp):
                continue
            if all(pair_value(q, images[j], x) == q[j][i] for j in range(i)):
                extend(images + [x])

    extend([])
    return out


def _apply(grp, images, x):
    acc = zero(grp)
    for c, im in zip(x, images):
        acc = add(grp, acc, scale(grp, c, im))
    return acc


def involution_orbits(h2) -> list:
    """Orbits of the nonzero involutions of H2 x H2^ under its isometries."""
    grp = (0, tuple(h2) + tuple(h2))
    invs = [x for x in elements(grp) if any(x) and scale(grp, 2, x) == zero(grp)]
    isos = _isometries(h2)
    orbits, placed = [], set()
    for x in invs:
        if x in placed:
            continue
        orbit = {_apply(grp, im, x) for im in isos}
        placed |= orbit
        orbits.append(orbit)
    return orbits


def check_fine_odd(n: int, payload, code) -> None:
    expect(code == 0 and payload["family"] == "odd", f"fine odd failed: {payload}")
    want, by_h = 0, {}
    for ell in _divisors(n):
        for h in abelian_groups(2 * ell):
            h2 = tuple(x for x in h if x % 2 == 0)
            by_h[h] = (ell, involution_orbits(h2), h2)
            want += len(by_h[h][1])
    expect(payload["count"] == want == len(payload["descriptors"]),
           f"fine odd {n} lists {payload['count']}, expected {want}")
    hit: dict = {}
    for d in payload["descriptors"]:
        h = tuple(d["h"])
        expect(h in by_h, f"{h} is not a group of order 2*ell, ell | {n}")
        ell, orbits, h2 = by_h[h]
        k = n // ell
        expect(d["blocks"] == [k], f"bad blocks in {d}")
        expect(d["invariants"] == _torus_invariants(h) + [0] * (k - 1),
               f"universal group of {h} is {d['invariants']}")
        t0 = tuple(d["t0"])
        tors = h + h
        expect(len(t0) == len(tors) and any(t0) and
               all((2 * c) % m == 0 for c, m in zip(t0, tors)),
               f"t0 {t0} is not an involution")
        idx = [i for i, x in enumerate(h) if x % 2 == 0]
        proj = tuple(t0[i] for i in idx) + tuple(t0[len(h) + i] for i in idx)
        orbit = next(i for i, o in enumerate(orbits) if proj in o)
        hit.setdefault(h, []).append(orbit)
    for h, (_, orbits, _) in by_h.items():
        expect(sorted(hit.get(h, [])) == list(range(len(orbits))),
               f"involution orbits of {h} are not each listed once")


def check_fine_p(n: int, payload, code) -> None:
    expect(code == 0 and payload["family"] == "p", f"fine p failed: {payload}")
    v = two_adic_valuation(n + 1)
    expect(payload["count"] == v + 1 == len(payload["descriptors"]),
           f"fine p {n} lists {payload['count']}, expected {v + 1}")
    for ell, d in enumerate(sorted(payload["descriptors"], key=lambda d: len(d["h"]))):
        k = (n + 1) // 2 ** ell
        expect(d["h"] == [2] * ell and d["blocks"] == [k],
               f"descriptor {ell} of P({n}) is {d['h']}, {d['blocks']}")
        expect(d["invariants"] == [2] * (2 * ell) + [0] * k,
               f"universal group {d['invariants']} of P({n}), ell={ell}")


def p_fine_invariants(spec: dict) -> list:
    """Z^k x (Z/2)^(2 ell) for a fine grading on P(n), k 2^ell = n + 1."""
    ell = len(spec["tgens"]) // 2
    return [2] * (2 * ell) + [0] * len(spec["gamma"])


# ---------------------------------------------------------------------------
# hostile input


def check_hostile(spec: dict, payload, code, stderr: str) -> None:
    """A documented exit code: 0 or 1 with a JSON payload, 2 with a message.

    A spec the program accepts must also verify correctly."""
    if code == 2:
        expect(payload is None and stderr.startswith("gradekit: "),
               f"exit 2 without a message: {payload!r} {stderr!r}")
        return
    expect(code in (0, 1) and isinstance(payload, dict),
           f"undocumented outcome: exit {code}, payload {payload!r}")
    if code == 1:
        expect(payload.get("verdict") == "error" and payload.get("error"),
               f"exit 1 on an accepted spec: {payload!r}")
        return
    if spec["kind"] == "p":
        check_verify_p(spec, payload, code)
    else:
        check_verify_matrix(spec, payload, code)
