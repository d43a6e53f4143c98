"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm
from typing import Optional

from gradekit.abgroup import (
    FinGenAbGroup,
    Subgroup,
    squares_and_two_torsion,
    subgroup_and_quotient,
)
from gradekit.bichar import Bicharacter, standard_pair
from gradekit import matgrade
from gradekit.superlie import PSpec, ambient_even_spec
from gradekit.matgrade import (
    EmbeddedPairing,
    EvenAssocSpec,
    OddAssocGSpec,
    odd_existence_check,
)

TRIVIAL_BETA = Bicharacter(FinGenAbGroup(0, ()), ())


def fraction_inverse(mat):
    """The inverse of a square integer matrix by Fraction Gauss-Jordan
    elimination, or None when it is singular."""
    n = len(mat)
    aug = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(mat)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [a * inv for a in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def fraction_triangular_solve(hnf_rows, vec):
    """The rational x with x * hnf_rows = vec, solved pivot by pivot with
    Fractions, or None when vec is outside the rational row span."""
    x = []
    for row in hnf_rows:
        pcol = next(j for j, a in enumerate(row) if a)
        rest = vec[pcol] - sum(c * r[pcol] for c, r in zip(x, hnf_rows))
        x.append(Fraction(rest) / row[pcol])
    back = [sum((c * r[j] for c, r in zip(x, hnf_rows)), Fraction(0))
            for j in range(len(vec))]
    return x if back == list(vec) else None


def dense_hermite_normal_form(rows):
    """The Hermite normal form of the row span of `rows` by dense column
    elimination: Euclid on every pair of rows that meet in a column, then
    reduction above the pivots.  The oracle for
    abgroup.hermite_normal_form."""
    work = [list(r) for r in rows if any(r)]
    if not work:
        return ()
    n = len(work[0])
    basis: list[list[int]] = []
    for col in range(n):
        carrier = None
        for row in work:
            if row[col]:
                if carrier is None:
                    carrier = row
                    continue
                # euclid the two rows on this column
                while row[col]:
                    q = carrier[col] // row[col]
                    for k in range(n):
                        carrier[k] -= q * row[k]
                    carrier, row = row, carrier
                # ends with row[col] == 0; carrier holds the gcd
        if carrier is None:
            continue
        work = [r for r in work if r is not carrier and any(r)]
        if carrier[col] < 0:
            carrier = [-a for a in carrier]
        basis.append(carrier)
    # reduce entries above each pivot
    for i in range(len(basis)):
        pcol = next(j for j, a in enumerate(basis[i]) if a)
        for k in range(i):
            q = basis[k][pcol] // basis[i][pcol]
            if q:
                basis[k] = [a - q * b for a, b in zip(basis[k], basis[i])]
    return tuple(tuple(r) for r in basis)


def solve_square(group, a):
    """One x with 2x = a, or None.  Deterministic per coordinate."""
    a = group.reduce(a)
    out = []
    for i in range(group.free_rank):
        if a[i] % 2:
            return None
        out.append(a[i] // 2)
    for i, d in enumerate(group.torsion):
        v = a[group.free_rank + i]
        if d % 2:
            out.append(v * pow(2, -1, d) % d)
        else:
            if v % 2:
                return None
            out.append(v // 2)
    return tuple(out)


def brute_closure(group, gens):
    """Every element of the finite subgroup generated by gens, found by
    adding generators until nothing new appears."""
    seen = {group.zero()}
    frontier = [group.zero()]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = group.add(x, g)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def brute_coset_canonical_rep(group, sub, x):
    """The least element of the finite coset x + sub, found by listing
    the coset."""
    x = group.reduce(x)
    return min(group.add(x, t) for t in brute_closure(group, sub.gens))


def random_unimodular(rng, n, steps=12):
    """A seeded random n x n integer matrix of determinant +-1, a product
    of row swaps, negations and additions."""
    mat = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        kind = rng.randrange(3)
        if kind == 0:
            mat[i], mat[j] = mat[j], mat[i]
        elif kind == 1:
            mat[i] = [-a for a in mat[i]]
        elif i != j:
            c = rng.randint(-3, 3)
            mat[i] = [a + c * b for a, b in zip(mat[i], mat[j])]
    return mat


def count_calls(monkeypatch, owner, name: str) -> list:
    """Record the arguments of every later call of owner.name, a module
    function looked up through the module or a method of a class."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def count_odd_conversions(monkeypatch) -> list:
    """Record every later call of matgrade.build_odd_from_G."""
    return count_calls(monkeypatch, matgrade, "build_odd_from_G")


# the steps a spec's one validation pass takes once each, and the build
# of a realization
ONE_PASS_STEPS = {
    "pairings": (EmbeddedPairing, "__init__"),
    "checks": (EmbeddedPairing, "check"),
    "parities": (matgrade, "_parity_element"),
    "quotients": (matgrade, "subgroup_and_quotient"),
    "decompositions": (Bicharacter, "symplectic_decomposition"),
}


def count_one_pass(monkeypatch) -> dict:
    """{step: calls} for every step of ONE_PASS_STEPS, recorded from now on."""
    return {step: count_calls(monkeypatch, owner, name)
            for step, (owner, name) in ONE_PASS_STEPS.items()}


def ref_row(beta, x):
    """The Fraction row x q, summed straight from the rational matrix
    beta.q, without Bicharacter.value."""
    return [sum((a * col for a, col in zip(x, cols) if a), Fraction(0))
            for cols in zip(*beta.q)]


def ref_value(beta, x, y, row=None):
    """beta(x, y) as a Fraction exponent in [0, 1); row, when given, is
    ref_row(beta, x)."""
    row = ref_row(beta, x) if row is None else row
    return sum((r * b for r, b in zip(row, y) if b), Fraction(0)) % 1


def ref_pairing_value(pairing, x, y):
    """ref_value of an EmbeddedPairing at two elements of its support."""
    return ref_value(pairing.beta, pairing.abstract_coords(x),
                     pairing.abstract_coords(y))


def exponent(beta, residue):
    """The Fraction exponent in [0, 1) of a residue modulo beta.m."""
    return Fraction(residue, beta.m)


def embedded_standard_torus(h, free=0, extra=()):
    """Ambient group Z^free x (H x H^) x extra with the standard pairing.

    Returns (G, tgens, beta); tgens are the unit vectors of the H x H^
    coordinates.
    """
    h = tuple(h)
    if not h:
        return FinGenAbGroup(free, tuple(extra)), (), TRIVIAL_BETA
    _, beta = standard_pair(h)
    group = FinGenAbGroup(free, h + h + tuple(extra))
    tgens = tuple(group.unit(free + i) for i in range(2 * len(h)))
    return group, tgens, beta


def random_element(rng, group):
    coords = [rng.randint(-2, 2) for _ in range(group.free_rank)]
    coords += [rng.randrange(d) for d in group.torsion]
    return group.reduce(coords)


def random_even_spec(rng):
    """A random valid even spec with m + n <= 8."""
    h = rng.choice([(), (), (2,), (3,), (4,), (2, 2)])
    root = 1
    for x in h:
        root *= x
    max_blocks = max(2, 8 // root)
    k0 = rng.randint(1, max(1, max_blocks - 1))
    k1 = rng.randint(1, max(1, max_blocks - k0))
    free = rng.choice([0, 1])
    extra = rng.choice([(), (2,), (4,)])
    group, tgens, beta = embedded_standard_torus(h, free, extra)
    gamma0 = tuple(random_element(rng, group) for _ in range(k0))
    gamma1 = tuple(random_element(rng, group) for _ in range(k1))
    return EvenAssocSpec(group, tgens, beta, gamma0, gamma1)


def oracle_chi_and_a(group, t0, tbar_lifts, beta_bar):
    """Independent derivation of the canonical character and its square class.

    Mirrors the published rule: characters of T+ are enumerated as dual
    vectors against its smith basis in lexicographic order; the first one
    taking -1 at t0 is chosen.  Returns (chi, a), chi with values the
    Fraction exponents of its roots.
    """
    _, gbar, theta = subgroup_and_quotient(group, [t0])
    bar = EmbeddedPairing(gbar, tuple(theta(t) for t in tbar_lifts), beta_bar)
    t_plus = bar.sub.preimage_under(theta)
    gens = t_plus.smith_gens
    t0_coords = t_plus.coords_of(t0)
    assert t0_coords is not None
    chosen = None
    for vec in itertools.product(*(range(o) for _, o in gens)):
        val = sum(Fraction(c * d, o) for c, d, (_, o) in zip(vec, t0_coords, gens))
        if val % 1 == Fraction(1, 2):
            chosen = vec
            break
    assert chosen is not None, "t0 is not separated by any character"

    def chi(x):
        coords = t_plus.coords_of(x)
        assert coords is not None
        return sum(Fraction(c * xc, o)
                   for c, xc, (_, o) in zip(chosen, coords, gens)) % 1

    a_bar = None
    for cand in bar.sub.elements():
        if all(ref_pairing_value(bar, cand, theta(s)) == 2 * chi(s) % 1
               for s, _ in gens):
            a_bar = cand
            break
    assert a_bar is not None
    a = next(x for x in t_plus.elements()
             if theta(x) == a_bar and chi(x) == 0)
    return chi, a


def random_odd_g_spec(rng, max_tries=200):
    """A random OddAssocG spec that passes the existence check, n <= 4."""
    for _ in range(max_tries):
        c = rng.choice([1, 2])
        h = rng.choice([(), (), (2,)])
        hsize = 1
        for x in h:
            hsize *= x
        k = rng.randint(1, max(1, 4 // hsize))
        extra = rng.choice([(), (2,), (4,), (3,)])
        tors = (2 * c,) + h + h + tuple(extra)
        group = FinGenAbGroup(0, tors)
        t0 = group.reduce((c,) + (0,) * (len(tors) - 1))
        lifts = tuple(group.unit(1 + i) for i in range(2 * len(h)))
        beta_bar = standard_pair(h)[1] if h else TRIVIAL_BETA
        try:
            if not odd_existence_check(group, t0, lifts, beta_bar):
                continue
        except ValueError:
            continue
        _, a = oracle_chi_and_a(group, t0, lifts, beta_bar)
        u0 = solve_square(group, a)
        if u0 is None:
            continue
        _, two_torsion = squares_and_two_torsion(group)
        shift = rng.choice(sorted(two_torsion.elements()))
        u = group.add(u0, shift)
        gamma = tuple(random_element(rng, group) for _ in range(k))
        return OddAssocGSpec(group, t0, lifts, beta_bar, u, gamma)
    raise RuntimeError("could not generate an odd spec")


def random_p_spec(rng):
    """A random valid P spec with n in {2, 3}."""
    if rng.random() < 0.5:
        h = ()
        k = rng.choice((3, 4))
    else:
        h = (2,)
        k = 2
    free = rng.choice((0, 1))
    extra = rng.choice(((), (2,), (3,)))
    group, tgens, beta = embedded_standard_torus(h, free, extra)
    gamma = tuple(random_element(rng, group) for _ in range(k))
    return PSpec(group, tgens, beta, gamma, random_element(rng, group))


def random_p_candidate_spec(rng):
    """An even spec with equal block counts over an elementary 2 support.

    Half the draws are ambient gradings of a valid P spec, the rest have
    independent block degrees and usually admit no restriction.
    """
    if rng.random() < 0.5:
        return ambient_even_spec(random_p_spec(rng))
    h = rng.choice(((), (2,)))
    k = 2 if h else rng.choice((3, 4))
    group, tgens, beta = embedded_standard_torus(h, rng.choice((0, 1)),
                                                 rng.choice(((), (2,), (4,))))
    gamma0 = tuple(random_element(rng, group) for _ in range(k))
    gamma1 = tuple(random_element(rng, group) for _ in range(k))
    return EvenAssocSpec(group, tgens, beta, gamma0, gamma1)


def standard_isometries(h):
    """(elements, walk) for H x H^ with H = Z/h1 x ... and its standard
    pairing, computed without gradekit: walk(leaf) calls leaf(images)
    once for every automorphism keeping the pairing, where images[i] is
    the index in `elements` of the image of the i-th unit generator.

    It assigns the unit generators in turn, each to every element it
    can go to: one killed by the generator's order that pairs with the
    images so far as the generators do.  The pairing is nondegenerate,
    so every such map is injective, hence an automorphism.
    """
    mods = tuple(h) + tuple(h)
    p, n = len(h), 2 * len(h)
    elems = list(itertools.product(*(range(d) for d in mods)))
    index = {x: i for i, x in enumerate(elems)}
    e = lcm(*h)

    def pair(x, y):
        return sum((x[i] * y[p + i] - x[p + i] * y[i]) * (e // h[i])
                   for i in range(p)) % e

    # sets of element indices as bit masks
    by_value = [[0] * e for _ in elems]
    for i, x in enumerate(elems):
        for j, y in enumerate(elems):
            by_value[i][pair(x, y)] |= 1 << j
    killed = {d: sum(1 << j for j, y in enumerate(elems)
                     if all(d * c % m == 0 for c, m in zip(y, mods)))
              for d in set(mods)}
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    want = [[pair(units[j], units[i]) for j in range(i)] for i in range(n)]

    def walk(leaf):
        images = []

        def extend(i):
            cand = killed[mods[i]]
            for j, w in enumerate(want[i]):
                cand &= by_value[images[j]][w]
            while cand:
                low = cand & -cand
                cand ^= low
                images.append(low.bit_length() - 1)
                if i + 1 == n:
                    leaf(images)
                else:
                    extend(i + 1)
                images.pop()

        extend(0)

    return elems, walk


def brute_involution_orbits(h):
    """The orbits of the nonzero involutions of H x H^ under its
    isometries, as (least member, orbit, isometries walked) in order of
    least member; one walk over every isometry per orbit."""
    elems, walk = standard_isometries(h)
    mods = tuple(h) + tuple(h)
    index = {x: i for i, x in enumerate(elems)}
    plus = [[index[tuple((a + b) % m for a, b, m in zip(x, y, mods))]
             for y in elems] for x in elems]
    placed, out = set(), []
    for x in elems:
        if not any(x) or any(2 * c % m for c, m in zip(x, mods)) or x in placed:
            continue
        terms = [(i, c) for i, c in enumerate(x) if c]
        reached, count = set(), [0]

        def leaf(images):
            acc = 0
            for i, c in terms:
                for _ in range(c):
                    acc = plus[acc][images[i]]
            reached.add(acc)
            count[0] += 1

        walk(leaf)
        orbit = {elems[i] for i in reached}
        placed |= orbit
        out.append((x, orbit, count[0]))
    return out


# ---------------------------------------------------------------------------
# a Fraction reference for the standard realization, without graddiv


def cyclotomic(m):
    """Phi_m, low degree first: x^m - 1 divided by Phi_d for every proper
    divisor d of m, by exact long division."""
    num = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            den = cyclotomic(d)
            out = [0] * (len(num) - len(den) + 1)
            for k in range(len(out) - 1, -1, -1):
                q = num[k + len(den) - 1]
                out[k] = q
                for i, c in enumerate(den):
                    num[k + i] -= q * c
            assert not any(num)
            num = out
    return num


class CycloSum:
    """A finite sum of rational multiples of roots of unity, held exactly."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[dict] = None):
        self.terms: dict[Fraction, Fraction] = {}
        if terms:
            for e, c in terms.items():
                if c:
                    key = Fraction(e) % 1
                    self.terms[key] = self.terms.get(key, Fraction(0)) + c
            self.terms = {e: c for e, c in self.terms.items() if c}

    @classmethod
    def zero(cls) -> "CycloSum":
        return cls()

    @classmethod
    def term(cls, coeff, e) -> "CycloSum":
        """coeff times exp(2 pi i e)."""
        return cls({Fraction(e): Fraction(coeff)})

    def __add__(self, other: "CycloSum") -> "CycloSum":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return CycloSum(out)

    def __sub__(self, other: "CycloSum") -> "CycloSum":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) - c
        return CycloSum(out)

    def scale(self, c) -> "CycloSum":
        return CycloSum({e: v * c for e, v in self.terms.items()})

    def is_zero(self) -> bool:
        """Exact zero test, by reduction modulo Phi_m for m the lcm of the
        denominators of the exponents present."""
        if not self.terms:
            return True
        m = 1
        for e in self.terms:
            m = lcm(m, e.denominator)
        rem = [Fraction(0)] * m
        for e, c in self.terms.items():
            rem[int(e * m) % m] += c
        phi = cyclotomic(m)
        dn = len(phi) - 1
        for k in range(len(rem) - 1, dn - 1, -1):
            if rem[k]:
                q = rem[k] / phi[-1]
                for i, dc in enumerate(phi):
                    rem[k - dn + i] -= q * dc
        return not any(rem[:dn])

    def equals_rational(self, value) -> bool:
        return (self - CycloSum.term(Fraction(value), 0)).is_zero()

    def __eq__(self, other) -> bool:
        return isinstance(other, CycloSum) and (self - other).is_zero()


def random_alternating_form(rng, mods):
    """A seeded random alternating bicharacter on Z/mods[0] x ..., often
    degenerate: q_ij = r / gcd(d_i, d_j) below the diagonal, q_ji = -q_ij."""
    group = FinGenAbGroup(0, tuple(mods))
    k = len(mods)
    q = [[Fraction(0)] * k for _ in range(k)]
    for i in range(k):
        for j in range(i):
            g = gcd(mods[i], mods[j])
            q[i][j] = Fraction(rng.randrange(g), g)
            q[j][i] = -q[i][j] % 1
    return Bicharacter(group, tuple(tuple(row) for row in q))


def random_alternating(rng, h):
    """A seeded random nondegenerate alternating bicharacter on H x H^."""
    while True:
        beta = random_alternating_form(rng, tuple(h) + tuple(h))
        if beta.is_nondegenerate():
            return beta


def brute_dual_pairs(beta):
    """The dual pairs of `Bicharacter.symplectic_decomposition`'s pivot
    rule, read by brute force with pairings summed from beta.q: among
    the elements orthogonal to the pairs so far, a is the lex-least
    nonzero one of largest order o and b the lex-least one with
    beta(a, b) of exact order o."""
    group = beta.domain

    def order(x):
        k, y = 1, x
        while any(y):
            k, y = k + 1, group.add(y, x)
        return k

    rest = sorted(group.elements())
    pairs = []
    while len(rest) > 1:
        o = max(order(e) for e in rest)
        a = min(e for e in rest if order(e) == o)
        b = min(e for e in rest if ref_value(beta, a, e).denominator == o)
        pairs.append((a, b, o))
        rest = [e for e in rest
                if ref_value(beta, a, e) == 0 and ref_value(beta, b, e) == 0]
    return tuple(pairs)


class ReferenceRealization:
    """The standard realization of beta as (perm, exponents) pairs, built
    straight from the rational matrix beta.q: entry j of X_t is the root
    exp(2 pi i exps[j]), exps[j] a Fraction in [0, 1).

    A and B are spanned by the dual pairs of beta.symplectic_decomposition;
    basis vectors are labeled by B sorted, and column j of X_{a+b} holds
    beta(a, b + label_j) in the row of b + label_j.
    """

    def __init__(self, beta):
        self.beta = beta
        group = self.group = beta.domain
        dec = beta.symplectic_decomposition()

        def span(gens):
            out = {group.zero()}
            for g, o in zip(gens, dec.orders):
                out = {group.add(x, group.scale(c, g)) for x in out for c in range(o)}
            return sorted(out)

        labels = span(dec.b_gens)
        self.size = len(labels)
        index = {lab: i for i, lab in enumerate(labels)}
        self.mats, self.split = {}, {}
        for a in span(dec.a_gens):
            for b in labels:
                targets = [group.add(b, lab) for lab in labels]
                t = group.add(a, b)
                self.split[t] = (a, b)
                self.mats[t] = (tuple(index[u] for u in targets),
                                tuple(ref_value(beta, a, u) for u in targets))

    @staticmethod
    def transpose(x):
        p, r = x
        perm, exps = [0] * len(p), [None] * len(p)
        for j, (i, c) in enumerate(zip(p, r)):
            perm[i], exps[i] = j, c
        return tuple(perm), tuple(exps)

    def elements(self):
        return sorted(self.group.elements())

    def table(self):
        """{(t, s): (c, t + s)} with X_t X_s = exp(2 pi i c) X_{t+s}, or
        None there."""
        out = {}
        for t in self.elements():
            pt, et = self.mats[t]
            for s in self.elements():
                ps, es = self.mats[s]
                ts = self.group.add(t, s)
                pz, ez = self.mats[ts]
                ratios = {(et[i] + c - z) % 1 for i, c, z in zip(ps, es, ez)}
                if tuple(pt[i] for i in ps) != pz or len(ratios) != 1:
                    out[t, s] = None
                else:
                    out[t, s] = (ratios.pop(), ts)
        return out

    def trace(self, t):
        acc = CycloSum.zero()
        for j, (i, c) in enumerate(zip(*self.mats[t])):
            if i == j:
                acc = acc + CycloSum.term(1, c)
        return acc

    def transpose_partner(self, t):
        """(a - b, the exponent of beta(a, b)) for t = a + b."""
        a, b = self.split[t]
        return self.group.sub(a, b), ref_value(self.beta, a, b)

    def failures(self, table=None):
        """The identities that fail, with the texts and in the order of
        graddiv.realization_failures; table defaults to self.table()."""
        group, size = self.group, self.size
        elems = self.elements()
        e = group.zero()
        table = self.table() if table is None else table
        out = []
        if self.mats[e] != (tuple(range(size)), (Fraction(0),) * size):
            out.append("X at the identity is not the identity matrix")
        for t in elems:
            for s in elems:
                entry, back = table[t, s], table[s, t]
                if entry is None:
                    out.append(f"X_{t} X_{s} is not a root multiple of X_(t+s)")
                elif back is not None and \
                        (entry[0] - back[0]) % 1 != ref_value(self.beta, t, s):
                    out.append(f"commutation factor at ({t}, {s}) is off")
        for t in elems:
            if t == e:
                if not self.trace(t).equals_rational(size):
                    out.append("trace at the identity is not the dimension")
            elif not self.trace(t).is_zero():
                out.append(f"trace of X_{t} does not vanish")
        for t in elems:
            u, c = self.transpose_partner(t)
            perm, exps = self.mats[u]
            if self.transpose(self.mats[t]) != (perm, tuple((c + r) % 1 for r in exps)):
                out.append(f"transpose identity fails at {t}")
        return out
