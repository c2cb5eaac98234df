#!/usr/bin/env python3
"""Unit checks for bench_diff.py — the perf gate must itself fail loudly.

The cases that matter:
  * a baseline entry missing from the fresh run fails (renames can't
    silently disarm their gate);
  * a run with BOTH a regression and a missing entry reports both failure
    classes (the missing message must not be swallowed by the regression
    exit);
  * a regression beyond the threshold fails; within-threshold noise and
    new fresh-only entries pass;
  * malformed/ambiguous input (missing keys, duplicate fresh entries)
    fails with a diagnosis, not a stack trace.

Run directly or via the fortress_bench_diff_unit ctest lane.
"""

import contextlib
import io
import json
import pathlib
import sys
import tempfile
import unittest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import bench_diff  # noqa: E402


def run_diff(baseline, fresh_files, extra_args=()):
    """Invoke bench_diff.main on temp files; return (exit code, output)."""
    with tempfile.TemporaryDirectory(prefix="bench_diff_test.") as tmp:
        base_path = pathlib.Path(tmp) / "baseline.json"
        base_path.write_text(json.dumps(baseline))
        argv = [str(base_path)]
        for i, fresh in enumerate(fresh_files):
            fresh_path = pathlib.Path(tmp) / f"fresh{i}.json"
            fresh_path.write_text(json.dumps(fresh))
            argv.append(str(fresh_path))
        argv.extend(extra_args)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = bench_diff.main(argv)
        return code, out.getvalue()


def entry(name, ns):
    return {"name": name, "ns_per_op": ns, "items_per_sec": 1e9 / ns}


class BenchDiffTest(unittest.TestCase):
    def test_identical_results_pass(self):
        bench = [entry("a", 100.0), entry("b", 200.0)]
        code, out = run_diff(bench, [bench])
        self.assertEqual(code, 0)
        self.assertIn("OK:", out)

    def test_missing_baseline_entry_fails(self):
        code, out = run_diff([entry("a", 100.0), entry("b", 200.0)],
                             [[entry("a", 100.0)]])
        self.assertEqual(code, 1)
        self.assertIn("missing from the fresh run", out)
        self.assertIn("b", out)

    def test_regression_and_missing_both_reported(self):
        # The loudness fix under test: with a regression AND a missing
        # entry, BOTH messages must appear before the non-zero exit.
        code, out = run_diff([entry("a", 100.0), entry("b", 200.0)],
                             [[entry("a", 150.0)]])
        self.assertEqual(code, 1)
        self.assertIn("regressed more than", out)
        self.assertIn("missing from the fresh run", out)

    def test_regression_beyond_threshold_fails(self):
        code, out = run_diff([entry("a", 100.0)], [[entry("a", 120.0)]])
        self.assertEqual(code, 1)
        self.assertIn("regressed more than", out)

    def test_within_threshold_noise_passes(self):
        code, _ = run_diff([entry("a", 100.0)], [[entry("a", 110.0)]])
        self.assertEqual(code, 0)

    def test_new_fresh_only_entry_passes(self):
        code, out = run_diff([entry("a", 100.0)],
                             [[entry("a", 100.0), entry("c", 50.0)]])
        self.assertEqual(code, 0)
        self.assertIn("(new)", out)

    def test_duplicate_fresh_entry_fails(self):
        code, out = run_diff([entry("a", 100.0)],
                             [[entry("a", 100.0)], [entry("a", 100.0)]])
        self.assertEqual(code, 1)
        self.assertIn("appears in both", out)

    def test_malformed_entry_fails_with_diagnosis(self):
        code, out = run_diff([entry("a", 100.0)],
                             [[{"name": "a", "items_per_sec": 1.0}]])
        self.assertEqual(code, 1)
        self.assertIn("missing the 'ns_per_op' key", out)

    def test_non_recorder_schema_fails_with_diagnosis(self):
        code, out = run_diff([entry("a", 100.0)],
                             [{"benchmarks": [{"name": "a"}]}])
        self.assertEqual(code, 1)
        self.assertIn("unrecognized benchmark JSON schema", out)


if __name__ == "__main__":
    unittest.main()
