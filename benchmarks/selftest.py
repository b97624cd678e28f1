"""Self-tests of the benchmark's own machinery.

Run from the repository root:

    python3 benchmarks/selftest.py

They check the gate, the failure accounting, the tracer's clean-up and
the input generator; the benchmarked program itself is tested by the
repository's test suite.
"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import gate  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from rothman import cli, diagnostics, glm, measures  # noqa: E402
from rothman.errors import GlmError  # noqa: E402


def _snapshot() -> dict:
    owners = tracing.rothman_modules() + [diagnostics.AnalysisReport]
    return {(repr(owner), key): value
            for owner in owners for key, value in vars(owner).items()}


class GateTest(unittest.TestCase):
    def test_rejects_each_estimate_perturbed_by_1e_6(self):
        table = inputs.make_inputs(7, "analyze_k2")[0]
        text = diagnostics.analyze(table).to_json()
        self.assertEqual(gate.check_report(table, text), [])
        doc = json.loads(text)
        paths = [(i, "crude_estimate_full", None)
                 for i in range(len(doc["measures"]))]
        paths += [(i, "stratum_estimates_full", j)
                  for i in range(len(doc["measures"])) for j in range(table.k)]
        for i, key, j in paths:
            with self.subTest(measure=doc["measures"][i]["short"], key=key, j=j):
                bad = json.loads(text)
                entry = bad["measures"][i]
                value = entry[key] if j is None else entry[key][j]
                value += 1e-6 * max(abs(value), 1.0)
                if j is None:
                    entry[key] = value
                else:
                    entry[key][j] = value
                self.assertNotEqual(gate.check_report(table, json.dumps(bad)), [])

    def test_rejects_broken_standardization_identity(self):
        table = inputs.make_inputs(7, "analyze_k2")[0]
        doc = json.loads(diagnostics.analyze(table).to_json())
        y = doc["points"]["standardized"]["exposed"]["y_full"]
        doc["points"]["standardized"]["exposed"]["y_full"] = y * (1 + 2**-52)
        self.assertNotEqual(gate.check_report(table, json.dumps(doc)), [])

    def test_svg_check(self):
        self.assertEqual(gate.check_svg("<svg/>"), [])
        self.assertNotEqual(gate.check_svg("<svg>"), [])


class FailureAccountingTest(unittest.TestCase):
    @staticmethod
    def _failing_irls(link_names):
        real = glm._irls

        def irls(X, s, n, link, offset=None):
            if link.name in link_names:
                raise GlmError(f"forced failure under the {link.name} link")
            return real(X, s, n, link, offset)

        return irls

    def test_forced_glm_error_counts_and_run_continues(self):
        workload = run.AnalyzeWorkload(inputs.make_inputs(3, "analyze_k2")[:2])
        with mock.patch.object(glm, "_irls", self._failing_irls({"log"})):
            durations = run.timed_loop(workload, 2)
        self.assertEqual(len(durations), 2)
        self.assertEqual(workload.attempted, 16)
        # The RR measure entry and the RR collapsibility entry of each op.
        self.assertEqual(workload.failed, 4)
        self.assertEqual(workload.crashes, [])
        self.assertEqual(workload.problems, [])

    def test_forced_glm_error_fails_cli_calls(self):
        workload = run.CliWorkload(inputs.make_inputs(3, "cli_mix")[:1])
        try:
            with mock.patch.object(glm, "_irls",
                                   self._failing_irls(set(glm.LINKS))):
                run.timed_loop(workload, 1)
            self.assertEqual(workload.attempted, 9)
            # collapse records fit errors in its report and exits 0;
            # figures 6 and 7 each need a fit and exit 2.
            self.assertEqual(workload.failed, 2)
            self.assertEqual(workload.problems, [])
            self.assertEqual(list(workload.work.glob("op*")), [])
        finally:
            workload.close()
        self.assertFalse(workload.work.exists())

    def test_exception_out_of_an_op_fails_all_its_attempts(self):
        workload = run.AnalyzeWorkload(inputs.make_inputs(3, "analyze_k2")[:1])
        with mock.patch.object(diagnostics, "analyze",
                               side_effect=RuntimeError("forced")):
            run.timed_loop(workload, 2)
        self.assertEqual((workload.attempted, workload.failed), (16, 16))
        self.assertEqual(len(workload.crashes), 2)


class LoopTest(unittest.TestCase):
    def test_each_output_is_checked_then_dropped(self):
        workload = run.AnalyzeWorkload(inputs.make_inputs(3, "analyze_k2")[:3])
        with mock.patch.object(gate, "check_report", return_value=["bad"]):
            durations = run.timed_loop(workload, 3)
        self.assertEqual(len(durations), 3)
        self.assertEqual(workload.problems, [f"table {i}: bad" for i in range(3)])
        self.assertIsNone(workload._last)

    def test_op_count_does_not_depend_on_speed(self):
        self.assertEqual(run.op_count("analyze_k2", 40), 136)
        self.assertEqual(run.op_count("cli_mix", 40), 50)


    def test_setup_spawns_spread_over_the_ops(self):
        for ops in (7, 50, 136):
            with self.subTest(ops=ops), \
                    mock.patch.object(run.SetupProbe, "_spawn", return_value=0.5):
                probe = run.SetupProbe(ops)
                due = []
                for i in range(ops):
                    before = len(probe.times)
                    probe.after_op(i)
                    due.append(len(probe.times) - before)
                self.assertEqual(sum(due), run.SETUP_SPAWNS)
                self.assertLessEqual(max(due) - min(due), 1)
                self.assertEqual(probe.median(), 0.5)


class TracerTest(unittest.TestCase):
    def test_attributes_restored_and_each_call_spanned_once(self):
        before = _snapshot()
        table = inputs.make_inputs(5, "analyze_k2")[0]
        with tracing.Tracer() as tracer:
            self.assertIsNot(cli.analyze, before[(repr(cli), "analyze")])
            self.assertIs(cli.analyze, diagnostics.analyze)
            self.assertIs(diagnostics.collapse_analysis,
                          measures.collapse_analysis)
            tracer.op = 0
            cli.analyze(table).to_json()
        self.assertEqual(_snapshot(), before)
        names = [s.name for s in tracer.spans]
        self.assertEqual(names.count("diagnostics.analyze"), 1)
        self.assertEqual(names.count("diagnostics.AnalysisReport.to_json"), 1)
        self.assertEqual(names.count("measures.collapse_analysis"), 4)
        self.assertTrue(all(s.op == 0 for s in tracer.spans))
        metrics = tracing.layer_metrics(tracer, 1)
        self.assertEqual(metrics["glm.irls_fits"], names.count("glm._irls"))
        self.assertGreater(metrics["glm.profile_interval.ms"], 0.0)

    def test_attributes_restored_after_an_exception(self):
        before = _snapshot()
        with self.assertRaises(ZeroDivisionError):
            with tracing.Tracer():
                1 / 0
        self.assertEqual(_snapshot(), before)

    def test_self_time_excludes_children(self):
        tracer = tracing.Tracer()
        tracer.spans = [
            tracing.Span("cli.run", 0.0, 1.0, -1, 0, None, 0),
            tracing.Span("glm.fit", 0.1, 0.4, 0, 0, None, 0),
            tracing.Span("glm._irls", 0.2, 0.3, 1, 0, None, 7),
            tracing.Span("glm.fit", 0.5, 0.7, 0, 0, "NonConvergenceError", 0),
        ]
        metrics = tracing.layer_metrics(tracer, 1)
        self.assertAlmostEqual(metrics["cli.run.self_ms"], 500.0)
        self.assertAlmostEqual(metrics["glm.fit.ms"], 500.0)
        self.assertEqual(metrics["glm.irls_iterations"], 7)
        self.assertEqual(metrics["glm.errors"], 1)

    def test_missing_name_is_reported_as_missing(self):
        with mock.patch.object(glm, "_irls", None):
            del glm._irls
            with tracing.Tracer() as tracer:
                pass
        metrics = tracing.layer_metrics(tracer, 1)
        self.assertIsNone(metrics["glm.irls_fits"])
        self.assertIsNone(metrics["glm.irls_iterations"])
        self.assertEqual(metrics["glm.fit.calls"], 0)


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs_other_seed_other_inputs(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first = inputs.make_inputs(11, workload)
                self.assertEqual(first, inputs.make_inputs(11, workload))
                self.assertNotEqual(first, inputs.make_inputs(12, workload))

    def test_sizes(self):
        tables = inputs.make_inputs(1, "analyze_k20")
        self.assertEqual(len(tables), inputs.K20_COUNT)
        for table in tables:
            self.assertEqual(table.k, 20)
            self.assertEqual(sum(c.total for c in table.cells), inputs.K20_N)


if __name__ == "__main__":
    unittest.main()
