"""Finite abelian group arithmetic for the benchmark, written apart from gradekit.

The benchmark builds its inputs and checks the program's outputs with
this module only, so a fault in gradekit's own group code cannot make a
wrong output look right.  A group is a pair (free, torsion) standing for
Z^free x Z/torsion[0] x ...; elements are integer tuples, free
coordinates first, torsion coordinates reduced into [0, d).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import prod

Group = tuple  # (free: int, torsion: tuple[int, ...])


def group_of(obj) -> Group:
    """The group of a spec document's {"free": r, "torsion": [...]} field."""
    return int(obj["free"]), tuple(int(d) for d in obj.get("torsion", ()))


def group_json(group: Group) -> dict:
    return {"free": group[0], "torsion": list(group[1])}


def reduce(group: Group, x) -> tuple:
    free, tors = group
    x = tuple(int(c) for c in x)
    if len(x) != free + len(tors):
        raise ValueError(f"{x} has the wrong length for {group}")
    return x[:free] + tuple(c % d for c, d in zip(x[free:], tors))


def add(group: Group, x, y) -> tuple:
    return reduce(group, (a + b for a, b in zip(x, y)))


def neg(group: Group, x) -> tuple:
    return reduce(group, (-a for a in x))


def scale(group: Group, k: int, x) -> tuple:
    return reduce(group, (k * a for a in x))


def zero(group: Group) -> tuple:
    return (0,) * (group[0] + len(group[1]))


def unit(group: Group, i: int) -> tuple:
    out = [0] * (group[0] + len(group[1]))
    out[i] = 1
    return reduce(group, out)


def elements(group: Group):
    """Every element of a finite group, in lexicographic order."""
    if group[0]:
        raise ValueError("cannot list an infinite group")
    return list(itertools.product(*(range(d) for d in group[1])))


def order_of(group: Group, x) -> int:
    """Order of a torsion element; raises on an element of infinite order."""
    x = reduce(group, x)
    if any(x[:group[0]]):
        raise ValueError(f"{x} has infinite order")
    k, acc = 1, x
    while any(acc):
        acc = add(group, acc, x)
        k += 1
    return k


def span(group: Group, gens) -> dict:
    """{element: coefficient vector} for the subgroup the gens generate.

    The coefficient of gens[i] runs over range(order of gens[i]); two
    vectors naming one element mean the gens are not independent, and
    then ValueError is raised.
    """
    gens = [reduce(group, g) for g in gens]
    orders = [order_of(group, g) for g in gens]
    out = {}
    for coeffs in itertools.product(*(range(o) for o in orders)):
        acc = zero(group)
        for c, g in zip(coeffs, gens):
            if c:
                acc = add(group, acc, scale(group, c, g))
        if acc in out:
            raise ValueError("generators are not independent")
        out[acc] = coeffs
    return out


def coset_key(group: Group, sub: dict, x) -> tuple:
    """Least element of the coset x + sub, a canonical name for it."""
    return min(add(group, x, t) for t in sub)


def coset_multiset(group: Group, sub: dict, labels) -> tuple:
    return tuple(sorted(coset_key(group, sub, x) for x in labels))


# ---------------------------------------------------------------------------
# bicharacters given by exponent matrices


def parse_q(q) -> tuple:
    return tuple(tuple(Fraction(str(v)) % 1 for v in row) for row in q)


def pair_value(q, x, y) -> Fraction:
    """Exponent of beta(x, y) for abstract coordinate vectors x and y."""
    return sum((xi * q[i][j] * yj for i, xi in enumerate(x)
                for j, yj in enumerate(y)), Fraction(0)) % 1


def standard_q(h) -> list:
    """Exponent strings of the standard pairing on H x H^, H = Z/h1 x ..."""
    p = len(h)
    q = [["0"] * (2 * p) for _ in range(2 * p)]
    for i, hi in enumerate(h):
        q[i][p + i] = str(Fraction(1, hi))
        q[p + i][i] = str(Fraction(-1, hi) % 1)
    return q


# ---------------------------------------------------------------------------
# counting abelian groups


def prime_factors(n: int) -> dict:
    out, p = {}, 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def partitions(n: int) -> list:
    """Partitions of n as descending tuples."""
    if n == 0:
        return [()]
    out = []
    for first in range(n, 0, -1):
        for rest in partitions(n - first):
            if not rest or rest[0] <= first:
                out.append((first,) + rest)
    return out


def partition_count(n: int) -> int:
    """p(n) by Euler's pentagonal recurrence, apart from `partitions`."""
    p = [1] + [0] * n
    for m in range(1, n + 1):
        k, total = 1, 0
        while True:
            g1 = k * (3 * k - 1) // 2
            if g1 > m:
                break
            sign = 1 if k % 2 else -1
            total += sign * p[m - g1]
            g2 = k * (3 * k + 1) // 2
            if g2 <= m:
                total += sign * p[m - g2]
            k += 1
        p[m] = total
    return p[n]


def abelian_group_count(n: int) -> int:
    return prod(partition_count(e) for e in prime_factors(n).values())


def abelian_groups(n: int) -> list:
    """Abelian groups of order n, each as a sorted tuple of prime powers."""
    per_prime = [[tuple(p ** e for e in parts) for parts in partitions(k)]
                 for p, k in sorted(prime_factors(n).items())]
    return sorted(tuple(sorted(x for block in combo for x in block))
                  for combo in itertools.product(*per_prime))


def invariant_factors(cyclic) -> list:
    """Invariant factors d1 | d2 | ... of a product of cyclic groups."""
    exps = {}
    for d in cyclic:
        for p, e in prime_factors(int(d)).items():
            exps.setdefault(p, []).append(e)
    length = max((len(v) for v in exps.values()), default=0)
    out = [1] * length
    for p, es in exps.items():
        es = sorted(es)
        for k, e in enumerate(es):
            out[length - len(es) + k] *= p ** e
    return [d for d in out if d > 1]


def two_adic_valuation(n: int) -> int:
    k = 0
    while n % 2 == 0:
        n //= 2
        k += 1
    return k
