"""Tests of the benchmark's oracles: real outputs pass, wrong ones fail.

    python3 -m unittest discover -s bench -p 'test_*.py'

Each oracle is fed what gradekit really prints for a small input, and
then a copy with one deliberate fault, which it must reject.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import random
import sys
import tempfile
import unittest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import oracles  # noqa: E402
import workloads  # noqa: E402
from gradekit import cli  # noqa: E402
from groups import (  # noqa: E402
    abelian_group_count,
    abelian_groups,
    invariant_factors,
    partition_count,
    partitions,
)


class CliCase(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.tmp.cleanup()

    def write(self, doc, name="spec.json"):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        return path

    def run_cli(self, *argv):
        with contextlib.redirect_stderr(io.StringIO()):
            return cli.run(list(argv))

    def rejects(self, check, *args):
        with self.assertRaises(oracles.Mismatch):
            check(*args)


class VerifyOracles(CliCase):
    def test_matrix_examples_and_their_corruptions(self):
        for kind in ("even", "odd_t", "odd_g"):
            spec = workloads.EXAMPLES[kind]
            payload, code = self.run_cli("verify", "-f", self.write(spec))
            oracles.check_verify_matrix(spec, payload, code)
            bad = copy.deepcopy(payload)
            bad["dims"][0][2] += 1
            self.rejects(oracles.check_verify_matrix, spec, bad, code)
            bad = copy.deepcopy(payload)
            bad["sizes"] = [x + 1 for x in bad["sizes"]]
            self.rejects(oracles.check_verify_matrix, spec, bad, code)
            bad = dict(payload, verdict="fail")
            self.rejects(oracles.check_verify_matrix, spec, bad, 1)
            if kind != "odd_g":
                bad = copy.deepcopy(payload)
                bad["support"] = bad["support"][1:]
                self.rejects(oracles.check_verify_matrix, spec, bad, code)
                bad = copy.deepcopy(payload)
                bad["support_odd"], bad["support_even"] = (bad["support_even"],
                                                           bad["support_odd"])
                self.rejects(oracles.check_verify_matrix, spec, bad, code)

    def test_fine_and_random_specs_pass(self):
        rng = random.Random(5)
        for spec in (workloads.fine_even(rng, 2, 2, (2,)),
                     workloads.fine_odd(rng, 2, (4,)),
                     workloads.random_odd_g(rng, 2, 2),
                     workloads.random_odd_t(rng, (2, 2), 1)):
            payload, code = self.run_cli("verify", "-f", self.write(spec))
            oracles.check_verify_matrix(spec, payload, code)

    def test_p_example_and_its_corruptions(self):
        spec = workloads.EXAMPLES["p"]
        payload, code = self.run_cli("verify", "-f", self.write(spec))
        oracles.check_verify_p(spec, payload, code)
        bad = copy.deepcopy(payload)
        bad["z_dims"]["1"] += 1
        self.rejects(oracles.check_verify_p, spec, bad, code)
        bad = dict(payload, dimension=payload["dimension"] + 1)
        self.rejects(oracles.check_verify_p, spec, bad, code)
        bad = copy.deepcopy(payload)
        bad["dims"][0][0] = [9, 9, 9]
        self.rejects(oracles.check_verify_p, spec, bad, code)
        bad = copy.deepcopy(payload)
        bad["dims"][0][1] += 1
        self.rejects(oracles.check_verify_p, spec, bad, code)


class UgroupOracle(CliCase):
    def test_labels_must_form_a_homomorphic_image(self):
        rng = random.Random(3)
        spec = workloads.fine_even(rng, 2, 2, (2,))
        payload, code = self.run_cli("ugroup", "-f", self.write(spec))
        _, dims, _, _ = oracles.expected_matrix_dims(spec)
        support = {deg for deg, _ in dims}
        oracles.check_ugroup(spec, payload, code, support=support,
                             invariants=[2, 2, 0])
        self.rejects(oracles.check_ugroup, spec, payload, code, support,
                     [2, 2, 0, 0])
        bad = copy.deepcopy(payload)
        bad["labels"][1][1], bad["labels"][2][1] = (bad["labels"][2][1],
                                                    bad["labels"][1][1])
        self.rejects(oracles.check_ugroup, spec, bad, code, support)
        bad = copy.deepcopy(payload)
        bad["labels"][1][1] = bad["labels"][2][1]
        self.rejects(oracles.check_ugroup, spec, bad, code, support)
        bad = copy.deepcopy(payload)
        del bad["labels"][3]
        self.rejects(oracles.check_ugroup, spec, bad, code, support)

    def test_fine_p_universal_group(self):
        spec = workloads.fine_p(random.Random(1), 3, 1)
        payload, code = self.run_cli("ugroup", "-f", self.write(spec))
        inv = oracles.p_fine_invariants(spec)
        self.assertEqual(inv, [2, 2, 0, 0])
        oracles.check_ugroup(spec, payload, code, invariants=inv)
        bad = dict(payload, invariants=[2, 0, 0])
        self.rejects(oracles.check_ugroup, spec, bad, code, None, inv)


class FineOracles(CliCase):
    def test_counts_and_descriptors(self):
        cases = [(oracles.check_fine_even, ("even", "4", "4"), (4, 4)),
                 (oracles.check_fine_even, ("even", "6", "9"), (6, 9)),
                 (oracles.check_fine_odd, ("odd", "2"), (2,)),
                 (oracles.check_fine_odd, ("odd", "3"), (3,)),
                 (oracles.check_fine_p, ("p", "7"), (7,))]
        for check, argv, sizes in cases:
            payload, code = self.run_cli("fine", *argv)
            check(*sizes, payload, code)
            bad = dict(payload, count=payload["count"] + 1)
            self.rejects(check, *sizes, bad, code)
            bad = copy.deepcopy(payload)
            bad["descriptors"].pop()
            bad["count"] -= 1
            self.rejects(check, *sizes, bad, code)
            bad = copy.deepcopy(payload)
            bad["descriptors"][-1]["invariants"].append(0)
            self.rejects(check, *sizes, bad, code)
            if len(payload["descriptors"]) > 1:
                bad = copy.deepcopy(payload)
                bad["descriptors"][-1] = bad["descriptors"][0]
                self.rejects(check, *sizes, bad, code)

    def test_odd_descriptor_with_a_non_involution(self):
        payload, code = self.run_cli("fine", "odd", "2")
        bad = copy.deepcopy(payload)
        d = next(d for d in bad["descriptors"] if d["h"] == [4])
        d["t0"] = [0, 1]
        self.rejects(oracles.check_fine_odd, 2, bad, code)

    def test_orbit_counts(self):
        self.assertEqual(len(oracles._isometries((2,))), 6)
        self.assertEqual(len(oracles._isometries((2, 2))), 720)
        self.assertEqual(len(oracles._isometries((4,))), 48)
        for h2 in ((2,), (4,), (2, 2)):
            self.assertEqual(len(oracles.involution_orbits(h2)), 1)

    def test_group_counting(self):
        self.assertEqual([partition_count(n) for n in range(8)],
                         [1, 1, 2, 3, 5, 7, 11, 15])
        self.assertEqual([len(partitions(n)) for n in range(8)],
                         [partition_count(n) for n in range(8)])
        self.assertEqual(abelian_group_count(72), 6)
        self.assertEqual(abelian_groups(8), [(2, 2, 2), (2, 4), (8,)])
        self.assertEqual(invariant_factors([6, 4]), [2, 12])
        self.assertEqual(invariant_factors([2, 4, 2, 4]), [2, 2, 4, 4])


class IsoOracles(CliCase):
    def iso(self, s1, s2, mode):
        return self.run_cli("iso", "-a", self.write(s1, "a.json"),
                            "-b", self.write(s2, "b.json"), "--mode", mode)

    def test_conjugation_search_agrees_with_the_shift_criterion(self):
        evens, odds = workloads.m11_universe()
        rng = random.Random(7)
        pairs = [(rng.choice(evens), rng.choice(evens)) for _ in range(40)]
        pairs += [(rng.choice(odds), rng.choice(odds)) for _ in range(40)]
        seen = set()
        for s1, s2 in pairs:
            for mode in ("assoc", "lie"):
                truth = oracles.m11_isomorphic(s1, s2, mode)
                self.assertEqual(truth, oracles.brute_isomorphic(s1, s2, mode))
                seen.add(truth)
        self.assertEqual(seen, {True, False})

    def test_swap_needs_the_antidiagonal_conjugation(self):
        a = workloads.even_spec((), 0, (4,), [(0,)], [(1,)])
        b = workloads.even_spec((), 0, (4,), [(1,)], [(0,)])
        self.assertTrue(oracles.m11_isomorphic(a, b, "assoc"))
        self.assertFalse(oracles._conjugation_carries(
            oracles.m11_family(a), oracles.m11_family(b), oracles._diagonal_parts))
        self.assertTrue(oracles.witness_holds(a, b, (0,), True, 1))
        self.assertFalse(oracles.witness_holds(a, b, (0,), False, 1))
        self.assertFalse(oracles.witness_holds(a, b, (1,), True, 1))

    def test_witnesses_are_reapplied(self):
        rng = random.Random(11)
        checked = 0
        for family, mode, shape, move in workloads.LARGE_PAIRS * 2:
            s1, s2 = workloads._constructed_pair(rng, family, mode, shape, move)
            truth = workloads._pair_truth(s1, s2, mode, move)
            payload, code = self.iso(s1, s2, mode)
            oracles.check_iso(s1, s2, mode, truth, payload, code)
            self.rejects(oracles.check_iso, s1, s2, mode, not truth, payload, code)
            if not truth:
                continue
            checked += 1
            w = payload["witness"]
            shifted = [c + 1 for c in w["g"]]
            if not oracles.witness_holds(s1, s2, shifted, w["swap"], w["delta"]):
                bad = copy.deepcopy(payload)
                bad["witness"]["g"] = shifted
                self.rejects(oracles.check_iso, s1, s2, mode, True, bad, code)
            if mode != "lie":
                bad = copy.deepcopy(payload)
                bad["witness"]["delta"] = -w["delta"]
                self.rejects(oracles.check_iso, s1, s2, mode, True, bad, code)
        self.assertGreater(checked, 10)


class HostileOracle(CliCase):
    def test_documented_outcomes_only(self):
        spec = workloads.EXAMPLES["even"]
        oracles.check_hostile(spec, None, 2, "gradekit: bad group\n")
        self.rejects(oracles.check_hostile, spec, None, 2, "")
        self.rejects(oracles.check_hostile, spec, {"verdict": "pass"}, 1, "")
        self.rejects(oracles.check_hostile, spec, None, None, "")
        oracles.check_hostile(spec, {"verdict": "error", "error": "x"}, 1, "")
        payload, code = self.run_cli("verify", "-f", self.write(spec))
        oracles.check_hostile(spec, payload, code, "")
        bad = copy.deepcopy(payload)
        bad["dims"].pop()
        self.rejects(oracles.check_hostile, spec, bad, code, "")

    def test_escapes_still_escape(self):
        for kind, key, beta in workloads.ESCAPES:
            doc = copy.deepcopy(workloads.EXAMPLES[kind])
            doc[key] = beta
            with self.assertRaises(ValueError):
                self.run_cli("verify", "-f", self.write(doc))

    def test_seeded_mutations_never_escape(self):
        rng = random.Random(2)
        for kind in workloads.EXAMPLES:
            for op in workloads.mutations(workloads.EXAMPLES[kind]) * 4:
                doc = workloads.mutate(rng, workloads.EXAMPLES[kind], op)
                payload, code = self.run_cli("verify", "-f", self.write(doc))
                self.assertIn(code, (0, 1, 2))


class Workloads(unittest.TestCase):
    def test_same_shape_for_every_seed(self):
        for name, build in workloads.WORKLOADS.items():
            shapes = []
            for seed in (1, 2, 1):
                with tempfile.TemporaryDirectory() as tmp:
                    w = workloads.Writer(tmp)
                    ops = build(random.Random(seed), w)
                    shapes.append(([len(op.argv) for op in ops],
                                   [op.escapes for op in ops],
                                   sorted(w.docs.values(), key=json.dumps)))
            self.assertEqual(shapes[0][:2], shapes[1][:2], name)
            self.assertEqual(shapes[0], shapes[2], name)
            self.assertNotEqual(shapes[0][2], shapes[1][2], name)


if __name__ == "__main__":
    unittest.main()
