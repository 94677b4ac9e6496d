#!/usr/bin/env python3
"""Tests for the benchmark's own logic in run.py: the percentile rule,
failed-cell accounting, digest pinning and fingerprint refusal.

    python3 perfbench/test_run.py
"""

import argparse
import contextlib
import io
import json
import tempfile
import unittest
from pathlib import Path

import run

REF = "h1,h2\na,1\nb,2\nc,3\n"


class PercentileRule(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertEqual(run.tail_percentile(list(range(108)))[0], 90.0)
        self.assertEqual(run.tail_percentile(list(range(1000)))[0], 99.0)
        self.assertEqual(run.tail_percentile(list(range(10000)))[0], 99.9)
        # 99 samples leave only 9 above the 90th: fall back to p75.
        self.assertEqual(run.tail_percentile(list(range(99)))[0], 75.0)
        self.assertIsNone(run.tail_percentile(list(range(30))))

    def test_every_reported_tail_has_ten_samples_beyond(self):
        for n in range(1, 2000, 7):
            tail = run.tail_percentile(list(range(n)))
            if tail:
                pct, value = tail
                self.assertGreaterEqual(
                    sum(1 for s in range(n) if s > value), 10, (n, pct))

    def test_nearest_rank(self):
        samples = [5, 1, 4, 2, 3]
        self.assertEqual(run.nearest_rank(samples, 50), 3)
        self.assertEqual(run.nearest_rank(samples, 90), 5)
        self.assertEqual(run.nearest_rank(samples, 0), 1)


class FailedAccounting(unittest.TestCase):
    def test_counts_each_differing_or_missing_row(self):
        changed = "h1,h2\na,1\nb,9\nc,3\n"
        missing = "h1,h2\na,1\nb,2\n"
        attempted, failed = run.count_row_failures(
            REF, [REF, changed, missing])
        self.assertEqual((attempted, failed), (9, 2))

    def test_wrong_header_fails_every_row_and_extra_rows_fail(self):
        self.assertEqual(run.count_row_failures(REF, ["x,y\na,1\nb,2\nc,3"]),
                         (3, 3))
        self.assertEqual(run.count_row_failures(REF, [REF + "d,4\n"]),
                         (4, 1))

    def test_other_seeds_compare_runs_with_each_other(self):
        seed = run.DEFAULT_SEED + 6
        _, failed, _, problems = run.check_outputs(
            "paper-sweep", seed, [REF, REF])
        self.assertEqual((failed, problems), (0, []))
        _, failed, digest, problems = run.check_outputs(
            "paper-sweep", seed, [REF, REF.replace("c,3", "c,4")])
        self.assertEqual(failed, 1)
        self.assertEqual(digest, "mixed")
        self.assertTrue(problems)


class JsonMetrics(unittest.TestCase):
    def evaluate(self, trace, traced_rows):
        pinned = run.pinned_rows("paper-sweep")
        passes = [{"rows": pinned, "wall_s": w, "cpu_s": 4 * w,
                   "sim_ops": 1e8, "cell_s": [0.3] * 108, "busy_frac": 0.9,
                   "tail_s": 0.5, "peak_rss_kb": 34000}
                  for w in (10.0, 11.0)]
        raw = {"jobs": 4, "compiler": "gcc", "build_type": "Release",
               "setup_s": [0.002, 0.001, 0.003], "passes": passes,
               "traced_wall_s": [11.5],
               "traced_rows": [traced_rows(pinned)],
               "layers": {"event.dispatched": 5e7}}
        args = argparse.Namespace(workload="paper-sweep",
                                  seed=run.DEFAULT_SEED, trace=trace)
        return run.evaluate(args, raw)

    def test_untraced_metrics_are_the_nonzero_end_to_end_set(self):
        rec = self.evaluate(0, lambda rows: rows)
        names = [m["name"] for m in run.spec()["end_to_end"]]
        self.assertEqual(list(rec["metrics"]), names)
        self.assertTrue(all(m["value"] for m in rec["metrics"].values()))
        self.assertEqual(rec["metrics"]["setup_s"]["value"], 0.002)

    def test_traced_metrics_carry_failed_frac_and_results(self):
        rec = self.evaluate(1, lambda rows: rows)
        names = [m["name"] for m in run.spec()["per_layer"]]
        self.assertEqual(list(rec["metrics"]), names)
        metrics = {k: v["value"] for k, v in rec["metrics"].items()}
        self.assertEqual(metrics["failed_frac"], 0.0)
        self.assertAlmostEqual(metrics["runtime_reduction_pct"], 5.96, 2)
        self.assertEqual(metrics["interchip_cut_pct"], 0.0)

        lines = run.pinned_rows("paper-sweep").splitlines(keepends=True)
        lines[7] = lines[7].replace(",", ",9", 1)
        rec = self.evaluate(1, lambda rows: "".join(lines))
        self.assertFalse(rec["correct"])
        self.assertEqual(rec["metrics"]["failed_frac"]["value"], 1 / 324)


class DigestPinning(unittest.TestCase):
    def test_pinned_rows_hash_to_pinned_digests(self):
        for workload in run.WORKLOADS:
            self.assertEqual(run.sha256(run.pinned_rows(workload)),
                             run.PINNED_SHA256[workload], workload)

    def test_digest_mismatch_is_a_failure(self):
        pinned = run.pinned_rows("paper-sweep")
        attempted, failed, digest, problems = run.check_outputs(
            "paper-sweep", run.DEFAULT_SEED, [pinned])
        self.assertEqual((failed, problems), (0, []))
        self.assertEqual(digest, run.PINNED_SHA256["paper-sweep"])
        self.assertEqual(attempted, 108)

        lines = pinned.splitlines(keepends=True)
        lines[5] = lines[5].replace(",", ",1", 1)
        attempted, failed, digest, problems = run.check_outputs(
            "paper-sweep", run.DEFAULT_SEED, [pinned, "".join(lines)])
        self.assertEqual((attempted, failed), (216, 1))
        self.assertEqual(digest, "mixed")
        self.assertTrue(problems)

    def test_a_repinned_csv_without_its_digest_is_refused(self):
        _, _, _, problems = run.check_outputs(
            "paper-sweep", run.DEFAULT_SEED, [REF], pinned=REF)
        self.assertTrue(any("do not hash" in p for p in problems))


class FingerprintRefusal(unittest.TestCase):
    FP = {"cpu_model": "cpu A", "cores": 4, "compiler": "gcc 12.2.0",
          "build_type": "Release"}

    def record(self, fingerprint, wall):
        return {"workload": "paper-sweep", "fingerprint": fingerprint,
                "metrics": {"wall_s": {"value": wall, "unit": "s"}}}

    def compare(self, base, head):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for name, recs in (("base", base), ("head", head)):
                path = Path(tmp) / f"{name}.jsonl"
                path.write_text("".join(json.dumps(r) + "\n" for r in recs))
                paths.append(path)
            bench = {"end_to_end": [{"name": "wall_s", "unit": "s",
                                     "better": "lower", "bound": 0.1}]}
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run.compare(paths[0], paths[1], bench)
            return code, out.getvalue()

    def test_different_host_is_refused_with_reason(self):
        other = dict(self.FP, cores=8, build_type="RelWithDebInfo")
        code, text = self.compare([self.record(self.FP, 10.0)],
                                  [self.record(other, 10.0)])
        self.assertEqual(code, 3)
        self.assertIn("cores: 4 vs 8", text)
        self.assertIn("build_type", text)
        self.assertNotIn("WORSE", text)

    def test_same_host_is_compared_against_the_bound(self):
        code, text = self.compare([self.record(self.FP, 10.0)],
                                  [self.record(self.FP, 10.5)])
        self.assertEqual(code, 0)
        code, text = self.compare([self.record(self.FP, 10.0)],
                                  [self.record(self.FP, 11.5)])
        self.assertEqual(code, 1)
        self.assertIn("WORSE than bound", text)

    def test_paired_rule_flags_a_shift_inside_the_bound(self):
        base = [10.0 + 0.1 * (i % 3) for i in range(10)]
        head = [b * 1.08 for b in base]
        code, text = self.compare([self.record(self.FP, b) for b in base],
                                  [self.record(self.FP, h) for h in head])
        self.assertEqual(code, 1)
        self.assertIn("pairs lost 10/10  WORSE in pairs", text)
        # Noise that wins and loses pairs alike is not flagged.
        head = [b + (0.5 if i % 2 else -0.5) for i, b in enumerate(base)]
        code, _ = self.compare([self.record(self.FP, b) for b in base],
                               [self.record(self.FP, h) for h in head])
        self.assertEqual(code, 0)

    def test_fingerprint_differences(self):
        self.assertEqual(run.fingerprint_differences(self.FP, self.FP), [])
        diff = run.fingerprint_differences(
            self.FP, dict(self.FP, cpu_model="cpu B"))
        self.assertEqual(len(diff), 1)
        self.assertIn("cpu_model", diff[0])


if __name__ == "__main__":
    unittest.main()
