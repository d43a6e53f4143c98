"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm
from typing import Optional

from gradekit.abgroup import (
    Coords,
    FinGenAbGroup,
    GroupHom,
    Subgroup,
    squares_and_two_torsion,
    subgroup_and_quotient,
)
from gradekit.bichar import Bicharacter, beta_isomorphism, standard_pair
from gradekit import matgrade
from gradekit.graddiv import product_table, realization_failures
from gradekit.superlie import (
    PSpec,
    _basis_entries,
    _bracket,
    _p_image,
    _primitive,
    _reduce,
    _rows,
    ambient_even_spec,
)
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


def dense_smith_normal_form(mat):
    """(diag, V) of a dense integer matrix by the dense loop that
    abgroup.smith_normal_form follows: V is a dense unimodular matrix
    and mat*V spans the rows diag[j] e_j.  Each step rescans the whole
    remaining block for the first entry of least magnitude.  The oracle
    for abgroup.smith_normal_form."""
    m = len(mat)
    n = len(mat[0]) if m else 0
    S = [list(row) for row in mat]
    V = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_cols(i, j):
        for row in S:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(i, j, q):
        # row i += q * row j
        S[i] = [a + q * b for a, b in zip(S[i], S[j])]

    def add_col(i, j, q):
        # col i += q * col j
        for row in S:
            row[i] += q * row[j]
        for row in V:
            row[i] += q * row[j]

    t = 0
    while t < min(m, n):
        # pivot: smallest nonzero magnitude in the remaining block
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = abs(S[i][j])
                if v and (best is None or v < best):
                    best = v
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            S[t], S[pi] = S[pi], S[t]
        if pj != t:
            swap_cols(t, pj)

        dirty = False
        for i in range(t + 1, m):
            if S[i][t]:
                q = S[i][t] // S[t][t]
                add_row(i, t, -q)
                if S[i][t]:
                    dirty = True
        for j in range(t + 1, n):
            if S[t][j]:
                q = S[t][j] // S[t][t]
                add_col(j, t, -q)
                if S[t][j]:
                    dirty = True
        if dirty:
            continue

        # force the pivot to divide the rest of the block
        fix = None
        p = S[t][t]
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if S[i][j] % p:
                    fix = i
                    break
            if fix is not None:
                break
        if fix is not None:
            add_row(t, fix, 1)
            continue
        t += 1

    return [abs(S[j][j]) if j < m else 0 for j in range(n)], V


def sparse_rows(mat):
    """The rows of a dense matrix as {col: value} dicts."""
    return [{j: a for j, a in enumerate(row) if a} for row in mat]


def dense_rows(rows, width):
    """The {col: value} rows as dense lists of the given width."""
    out = []
    for row in rows:
        dense = [0] * width
        for j, a in row.items():
            dense[j] = a
        out.append(dense)
    return out


def dense_columns(cols):
    """The square matrix whose columns are the {row: value} dicts cols."""
    return [[col.get(i, 0) for col in cols] for i in range(len(cols))]


def restrict(beta, sub):
    """The bicharacter beta induces on sub.as_group(), in the coordinates
    of sub.smith_gens."""
    if sub.parent != beta.domain:
        raise ValueError("subgroup lives in a different group")
    gens = [g for g, _ in sub.smith_gens]
    return Bicharacter.from_residues(
        sub.as_group(), beta.m, [[beta.value(a, b) for b in gens] for a in gens])


def verify_realization(real) -> None:
    """Check every defining identity of a realization, exactly.

    Raises ValueError with the first failure of realization_failures.
    """
    failures = realization_failures(real, product_table(real), real.beta)
    if failures:
        raise ValueError(failures[0])


def is_even_grading(model) -> bool:
    """Whether the model's grading is even, via two independent criteria.

    Both read the model's keys (i, j, t_abs).  An odd model's parity
    element u0 is found in the pairing's domain as the nonzero element
    that pairs trivially with every even t; an even model's first
    sizes[0] // realization.size rows are even."""
    pairing = model.pairing
    dom = pairing.beta.domain
    zero = dom.zero()
    if model.kind == "even":
        k0 = model.sizes[0] // model.realization.size
        eps = [b for b in model.basis if b.i == b.j < k0 and b.t_abs == zero]
        z_compatible = True
    else:
        even = [s for s in dom.elements() if pairing.push(s)[-1] == 0]
        u0 = next(x for x in dom.elements()
                  if any(x) and all(pairing.beta.value(x, s) == 0 for s in even))
        eps = [b for b in model.basis if b.i == b.j and b.t_abs in (zero, u0)]
        # (a) compatibility with the canonical Z-grading: every odd basis
        # element merges with its parity partner, t_abs shifted by u0
        z_compatible = all(
            b.degree == model.basis[model.index[b.i, b.j, dom.add(b.t_abs, u0)]].degree
            for b in model.basis if b.parity == 1)
    # (b) the Morita idempotent diag(I_m, 0) is homogeneous
    eps_homogeneous = len({b.degree for b in eps}) == 1
    if z_compatible != eps_homogeneous:
        raise RuntimeError("even-grading criteria disagree; model bookkeeping is broken")
    return z_compatible


def per_pair_failures(model):
    """The basis elements (i, j, t) missing from the k x k block grid
    times T, then each basis element outside that grid or met before,
    then the degree and parity findings of a plain loop that multiplies
    the monomial matrices of every compatible basis pair afresh; each
    element is named by t = push(t_abs) in T."""
    real = model.realization
    push = model.pairing.push
    dom = model.pairing.beta.domain
    dg = model.degree_group
    k = sum(model.sizes) // real.size
    grid = [(i, j, t) for i in range(k) for j in range(k) for t in sorted(dom.elements())]
    failures = [f"basis element {(i, j, push(t))} is missing"
                for i, j, t in grid if (i, j, t) not in model.index]
    count = dict.fromkeys(grid, 0)
    for b in model.basis:
        name = (b.i, b.j, push(b.t_abs))
        if (b.i, b.j, b.t_abs) not in count:
            failures.append(f"basis element {name} is outside the block grid")
        else:
            count[b.i, b.j, b.t_abs] += 1
            if count[b.i, b.j, b.t_abs] > 1:
                failures.append(f"basis element {name} is duplicated")
    for x in model.basis:
        for y in model.basis:
            if y.i != x.j:
                continue
            prod_abs = dom.add(x.t_abs, y.t_abs)
            sigma = (real.matrix(x.t_abs) * real.matrix(y.t_abs)).proportionality(
                real.matrix(prod_abs))
            if sigma is None:
                failures.append(f"product of X_{x.t_abs} and X_{y.t_abs} "
                                "is not a root multiple of the expected basis matrix")
                continue
            xname = (x.i, x.j, push(x.t_abs))
            yname = (y.i, y.j, push(y.t_abs))
            n = model.index.get((x.i, y.j, prod_abs))
            if n is None:
                failures.append(f"product of {xname} * {yname} "
                                "lands on no basis element")
                continue
            target = model.basis[n]
            want = dg.add(x.degree, y.degree)
            if target.degree != want:
                failures.append(f"degree of {xname} * {yname} "
                                f"is {target.degree}, expected {want}")
            if target.parity != (x.parity + y.parity) % 2:
                failures.append(f"parity of {xname} * {yname} "
                                "is not additive")
    return failures


def full_pair_universal_group(model):
    """(group, labels) presented by the support with one relation for
    the pair of degrees (deg x, deg y) of every nonzero product x y of
    basis elements: each distinct (degree, column) of a left factor meets
    every degree in that row.  Up to k^3 |T|^2 pairs; the oracle for the
    generating pairs of matgrade.universal_group."""
    degree = [model.base_degree(b) for b in model.basis]
    row_degrees: dict = {}
    for b, d in zip(model.basis, degree):
        row_degrees.setdefault(b.i, set()).add(d)
    lefts = {(d, b.j) for b, d in zip(model.basis, degree)}
    pairs = {(d, e) for d, j in lefts for e in row_degrees.get(j, ())}
    return matgrade.presented_quotient(model.base_group, model.support(), pairs)


def is_isomorphic(a: FinGenAbGroup, b: FinGenAbGroup) -> bool:
    """Same free rank and invariant factors."""
    return (a.free_rank == b.free_rank
            and a.invariant_factors() == b.invariant_factors())


def all_pairs_universal_P_group(model):
    """(group, labels) presented by the support of a P model with one
    relation for each pair of degrees whose components have a nonzero
    bracket, found by bracketing component bases for every unordered pair
    of support degrees; the oracle for superlie.universal_P_group."""
    supp = sorted(g for g, items in model.components.items() if items)
    rows = {g: [(_rows(model.matrix(x)), z) for x, z in model.components[g]]
            for g in supp}
    pairs = []
    for a, g in enumerate(supp):
        for h in supp[a:]:
            if any(zx + zy not in (2, -2) and _bracket(x, zx, y, zy)
                   for x, zx in rows[g] for y, zy in rows[h]):
                pairs.append((g, h))
    return matgrade.presented_quotient(model.ambient.base_group, supp, pairs)


def entries_of(rows):
    """{(row, col): value} of a matrix given grouped by rows."""
    return {(r, c): v for r, row in rows.items() for c, v in row.items()}


def p_label_vector(ambient, key):
    """(rows, z) of the P(n) vector x + sigma(x) that the label key of
    superlie.p_labels stands for, x the ambient element E_IJ X_t; for
    a key (i, i, 0) with i >= 1, A(i, i, 0) - A(0, 0, 0)."""
    half = ambient.sizes[0]
    d = ambient.realization.size

    def vector(i, j, t, sign=1):
        mono = ambient.realization.matrix(t)
        for col, (row, e) in enumerate(zip(mono.perm, mono.exps)):
            value = sign * (-1) ** (2 * e // mono.m)
            for r, c, s in ((i * d + row, j * d + col, 1),
                            _p_image(i * d + row, j * d + col, half)):
                entries[r, c] = entries.get((r, c), 0) + s * value

    entries = {}
    i, j, t = key
    vector(i, j, t)
    if i == j and not any(t):
        vector(0, 0, t, -1)
    rows = {}
    for (r, c), v in entries.items():
        if v:
            rows.setdefault(r, {})[c] = v
    return rows, ambient.basis[ambient.index[key]].z_degree


def p_constraints(entries, z: int, half: int) -> dict[int, int]:
    """The constraint functionals cutting P(n) out of one z-block, applied
    to a matrix given by its entries, keyed by constraint.

    z = 0 asks d = -a^T and tr a = 0, z = -1 (the b corner) b = b^T, and
    z = 1 (the c corner) c = -c^T.
    """
    out: dict[int, int] = {}

    def add(key, v):
        out[key] = out.get(key, 0) + v

    for (r, c), v in entries.items():
        if z == 0:
            if r < half:
                add(c * half + r, v)
                if r == c:
                    add(half * half, v)
            else:
                add((r - half) * half + c - half, v)
        elif z == -1:
            c -= half
            if r != c:
                add(min(r, c) * half + max(r, c), v if r < c else -v)
        else:
            r -= half
            add(min(r, c) * half + max(r, c), 2 * v if r == c else v)
    return {k: v for k, v in out.items() if v}


def kernel(columns: list[dict[int, int]]) -> list[dict[int, int]]:
    """A basis of {x : sum_j x_j columns[j] = 0} as integer vectors.

    Each column is tagged with its own unit vector and reduced against the
    earlier ones; a column dependent on them leaves its relation in the
    tags.  That relation only involves the column and earlier independent
    ones, so up to scale it is the vector that reduced row echelon form
    assigns to the free column.
    """
    tag = 1 + max((k for col in columns for k in col), default=-1)
    pivots: dict = {}
    basis = []
    for j, col in enumerate(columns):
        rest = _reduce({**col, tag + j: 1}, pivots)
        lead = min(rest)
        if lead < tag:
            pivots[lead] = _primitive(rest)
        else:
            basis.append({k - tag: v for k, v in rest.items()})
    return basis


def kernel_p_intersection(model):
    """The components P(n) cap A_g of an even model solved as kernels of
    the constraint functionals, one (degree, Z-degree) bucket of the
    ambient basis at a time, each vector as its matrix entries; the
    reference for superlie.p_intersection."""
    half = model.sizes[0]
    buckets: dict = {}
    for i, b in enumerate(model.basis):
        buckets.setdefault((b.degree, b.z_degree), []).append(i)
    components: dict = {}
    for (degree, z), indices in sorted(buckets.items()):
        selected = [_basis_entries(model, i) for i in indices]
        for coeffs in kernel([p_constraints(e, z, half) for e in selected]):
            vec: dict = {}
            for j, x in coeffs.items():
                for key, v in selected[j].items():
                    vec[key] = vec.get(key, 0) + x * v
            vec = _primitive({k: v for k, v in vec.items() if v})
            components.setdefault(degree, []).append((vec, z))
    return components


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


def searched_chi_vector(t_plus, t0):
    """The lexicographically least dual vector, against the smith basis
    of the finite subgroup t_plus, whose character takes -1 at t0, found
    by searching every dual vector; None when no character does.  The
    oracle for matgrade._canonical_chi."""
    gens = t_plus.smith_gens
    t0_coords = t_plus.coords_of(t0)
    assert t0_coords is not None
    for vec in itertools.product(*(range(o) for _, o in gens)):
        val = sum(Fraction(c * d, o) for c, d, (_, o) in zip(vec, t0_coords, gens))
        if val % 1 == Fraction(1, 2):
            return vec
    return None


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
    chosen = searched_chi_vector(t_plus, t0)
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


def wide_p_spec(rng):
    """A random valid P spec of a wider shape than random_p_spec: H =
    (2, 2) with k = 1 or 2, H = (2,) with k = 2 or 3, or trivial H with
    k = 3, 4 or 5; free rank 0-2 and extra torsion (), (2,), (3,),
    (2, 2) or (4,)."""
    h, k = rng.choice((((2, 2), 1), ((2, 2), 2), ((2,), 2), ((2,), 3),
                       ((), 3), ((), 4), ((), 5)))
    extra = rng.choice(((), (2,), (3,), (2, 2), (4,)))
    group, tgens, beta = embedded_standard_torus(h, rng.randint(0, 2), extra)
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


def _two_height(x: Coords) -> int:
    """2-height of a nonzero x in a group of 2-power cyclic factors: the
    largest k with x in 2^k times the group."""
    return min((c & -c).bit_length() - 1 for c in x if c)


def _close_orbit(orbit: set[Coords], isometries: list[GroupHom]) -> None:
    """Add to `orbit` its images under every composite of `isometries`."""
    todo = list(orbit)
    while todo:
        y = todo.pop()
        for phi in isometries:
            z = phi.apply(y)
            if z not in orbit:
                orbit.add(z)
                todo.append(z)


def search_involution_orbits(beta: Bicharacter) -> list[Coords]:
    """Representatives of the isometry orbits of the involutions of
    (T, beta), each the lexicographically least member of its orbit,
    smallest representative first, found by search: the oracle of
    `classify._involution_orbits`.

    Each coordinate of T must have 2-power or odd order.  Every
    involution lies in the 2-power coordinates T_2, which beta pairs
    trivially with the rest, and every isometry of T_2 extends by the
    identity; so orbits are searched in T_2 and embedded back with zeros.
    Involutions are taken in lexicographic order.  One already reached
    from a representative by a composite of isometries found so far
    joins its orbit; otherwise each representative of the same 2-height
    (an isometry keeps heights) is searched for an isometry onto it, and
    the first one found joins it and closes the orbit under the
    isometries found.  An involution no search reaches starts an orbit.
    """
    moduli = beta.domain.torsion
    two = [i for i, d in enumerate(moduli) if d & (d - 1) == 0]
    if any(d % 2 == 0 for d in moduli if d & (d - 1)):
        raise ValueError("each coordinate must have 2-power or odd order")
    beta2 = Bicharacter.from_residues(FinGenAbGroup(0, tuple(moduli[i] for i in two)),
                                      beta.m, [[beta.N[i][j] for j in two] for i in two])
    dom2 = beta2.domain
    involutions = itertools.product(*((0, d // 2) for d in dom2.torsion))
    next(involutions)  # zero
    # (representative, the isometries found from it, the members of its
    # orbit they reach)
    reps: list[tuple[Coords, list[GroupHom], set[Coords]]] = []
    for x in involutions:
        if any(x in orbit for _, _, orbit in reps):
            continue
        for rep, found, orbit in reps:
            if _two_height(rep) != _two_height(x):
                continue
            images = beta_isomorphism(beta2, beta2, [(rep, x)])
            if images is not None:
                found.append(GroupHom(dom2, dom2, images))
                _close_orbit(orbit, found)
                break
        else:
            reps.append((x, [], {x}))
    out = []
    for rep, _, _ in reps:
        full = [0] * len(moduli)
        for i, c in zip(two, rep):
            full[i] = c
        out.append(tuple(full))
    return out


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
