"""Tests of the benchmark itself: planted wrong answers count as failed ops,
inputs follow the seed, the tracer counts and restores, and BENCHMARK.json
names what the code reports.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import copy
import json
import random
import shutil
import sys
import tempfile
import unittest

import run
import tracing
import workloads

sys.path.insert(0, str(run.SRC))

from bierlab import complexes, duality, tor  # noqa: E402


class WorkdirCase(unittest.TestCase):
    def setUp(self):
        self.workdir = tempfile.mkdtemp(prefix="test-")
        self.addCleanup(shutil.rmtree, self.workdir, True)


class BenchmarkJsonTest(unittest.TestCase):
    def test_names_match_the_code(self):
        with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            bench = json.load(fh)
        self.assertEqual([w["name"] for w in bench["workloads"]], list(workloads.NAMES))
        self.assertEqual([(m["name"], m["unit"]) for m in bench["end_to_end"]], run.END_TO_END)
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]],
            [row[:3] for row in tracing.LAYER_METRICS],
        )


class InputsTest(unittest.TestCase):
    def test_bier_sphere_helper_matches_the_program(self):
        rng = random.Random(7)
        for m in (3, 4, 5):
            for _ in range(20):
                cx = workloads.random_facets(rng, m)
                sphere = complexes.drop_ghosts(duality.bier_sphere(complexes.make_complex(*cx)))
                self.assertEqual(workloads.bier_sphere(cx), (sphere.m, tuple(sphere.facet_sets())))

    def test_iso_invariant_ignores_labels(self):
        rng = random.Random(11)
        for m in (3, 4, 5):
            for _ in range(20):
                cx = workloads.random_facets(rng, m)
                for x in (cx, workloads.bier_sphere(cx)):
                    self.assertEqual(workloads.iso_invariant(x),
                                     workloads.iso_invariant(workloads.random_relabel(rng, x)))

    def test_golod_prediction_on_named_complexes(self):
        self.assertEqual(workloads.golod_prediction((4, ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)))),
                         (True, False))
        self.assertEqual(workloads.golod_prediction((4, ((1,), (3,)))), (False, True))
        self.assertEqual(workloads.golod_prediction((4, ((1, 2), (3, 4)))), (False, False))


class FaceRingTest(WorkdirCase):
    def test_seed_draws_the_labels(self):
        a = workloads.FaceRing(1, self.workdir, 0)
        b = workloads.FaceRing(2, self.workdir, 0)
        self.assertEqual([i[1] for i in a.batch(0)], [i[1] for i in a.batch(0)])
        self.assertNotEqual([i[1] for i in a.batch(0)], [i[1] for i in b.batch(0)])
        self.assertEqual(sorted(i[0] for i in a.batch(0)), sorted(i[0] for i in b.batch(0)))

    def test_planted_wrong_answers_fail(self):
        for p in (0, 2):
            w = workloads.FaceRing(3, self.workdir, p)
            item = next(i for i in w.batch(0) if i[1][0] == 4)
            table, verdict = w.call(item)
            self.assertEqual(w.failures(item, (table, verdict)), 0)
            off_by_one = dict(table)
            key = next(iter(off_by_one))
            off_by_one[key] += 1
            self.assertEqual(w.failures(item, (off_by_one, verdict)), 1)
            self.assertEqual(w.failures(item, (table, (not verdict[0], verdict[1]))), 1)
            self.assertEqual(w.failures(item, workloads.Failure(RuntimeError("x"))), 1)


class CensusCanonTest(WorkdirCase):
    def test_planted_wrong_counts_fail(self):
        w = workloads.CensusCanon(0, self.workdir)
        w._class_counts = dict(w.CLASS_COUNTS)  # skip the 3 s m=5 enumeration
        n = w.SPHERE_CLASSES
        good = {"instances": n, "passed": n, "counterexamples": [],
                "details": {"sphere_classes": n}, "suite": w.SUITE}
        self.assertEqual(w.failures(w.SUITE, good), 0)
        bad = copy.deepcopy(good)
        bad["details"]["sphere_classes"] = n - 1
        self.assertEqual(w.failures(w.SUITE, bad), n)
        w._class_counts = {3: 8, 4: 28, 5: 207}
        self.assertEqual(w.failures(w.SUITE, good), n)


class CliQueriesTest(WorkdirCase):
    def test_planted_wrong_response_fails(self):
        w = workloads.CliQueries(5, self.workdir)
        w.reset()
        item = next(i for i in w.batch(0) if i[1][0] == "betti")
        output = w.output(item, w.call(item))
        self.assertEqual(w.failures(item, output), 0)
        returned, payload = copy.deepcopy(output)
        payload["betti"][0][2] += 1
        self.assertEqual(w.failures(item, (returned, payload)), 1)

    def test_mix_repeats_a_quarter_of_betti_and_golod(self):
        w = workloads.CliQueries(5, self.workdir)
        kinds = [i[1][0] for i in w.batch(0)]
        self.assertEqual(len(kinds), len(w.mix) + len(w.repeats))
        self.assertEqual(kinds.count("cubical"), 13)
        self.assertEqual(kinds.count("golod") + kinds.count("betti"), 33)
        self.assertEqual(len(w.repeats), 8)

    def test_golod_repeats_keep_their_labels(self):
        w = workloads.CliQueries(5, self.workdir)
        items = w.batch(0)
        inputs = {}
        for j, argv, _out in items:
            with open(argv[2], encoding="utf-8") as fh:
                inputs.setdefault(j, json.load(fh))
        for n, (slot, relabeled) in enumerate(w.repeats):
            repeat = inputs[len(w.mix) + n]
            if w.mix[slot][0] == "golod":
                self.assertFalse(relabeled)
                self.assertEqual(repeat, inputs[slot])

    def test_known_defects_counts_a_planted_wrong_response(self):
        w = workloads.CliQueries(5, self.workdir)
        real_run = w.cli.run

        def planted(argv):
            rc = real_run(argv)
            if "--no-cache" in argv:
                out = argv[argv.index("--out") + 1]
                with open(out, encoding="utf-8") as fh:
                    payload = json.load(fh)
                payload["betti"][0][2] += 1
                with open(out, "w", encoding="utf-8") as fh:
                    json.dump(payload, fh)
            return rc

        w.repeats = [r for r in w.repeats if w.mix[r[0]][0] != "golod"]
        w.cli = type("Cli", (), {"run": staticmethod(planted)})
        row = w.known_defects()["cache_relabeled_golod"]
        self.assertEqual((row["attempted"], row["failed"]), (1, 1))


class TracerTest(unittest.TestCase):
    def test_counts_and_restores(self):
        original = tor.hochster_betti
        k = complexes.make_complex(4, [[1, 2], [2, 3], [3, 4]])
        tracer = tracing.Tracer()
        tracer.start()
        try:
            sphere = complexes.drop_ghosts(duality.bier_sphere(k))
            tor.hochster_betti(sphere, tor.QQ)
        finally:
            tracer.stop()
        self.assertIs(tor.hochster_betti, original)
        values = tracer.metrics(0.0)
        self.assertEqual(set(values), {row[0] for row in tracing.LAYER_METRICS})
        self.assertEqual(values["tor.hochster_betti.subsets"], 1 << sphere.m)
        self.assertGreater(values["linalg.rank.calls"], 0)
        self.assertEqual(values["duality.bier_sphere.calls"], 1)
        self.assertEqual(values["complexes.canonical_form.calls"], 0)
        self.assertGreaterEqual(values["tor.hochster_betti.self_s"], 0.0)


if __name__ == "__main__":
    unittest.main()
