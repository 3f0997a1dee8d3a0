"""Self-tests of the benchmark: python3 -m unittest discover -s perfbench"""

from __future__ import annotations

import json
import random
import signal
import subprocess
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import verify  # noqa: E402
import worker  # noqa: E402

INF = float("inf")


class Percentiles(unittest.TestCase):
    def test_failures_count_as_infinite(self):
        samples = [float(i) for i in range(1, 10)] + [INF]
        self.assertEqual(run.percentile(samples, 0.9), (9.0, 1))
        self.assertEqual(run.percentile(samples, 0.5), (5.0, 5))
        self.assertEqual(run.percentile(samples[:8] + [INF, INF], 0.9)[0], INF)

    def test_samples_beyond_p90(self):
        _, beyond = run.percentile([1.0] * 100, 0.9)
        self.assertEqual(beyond, 10)


def _timed_report(samples_ms, ref_ms, in_reach):
    return {"samples_ms": samples_ms, "ref_ms": ref_ms, "in_reach": in_reach,
            "attempted": len(samples_ms), "peak_rss_mb": 50.0}


class Rate(unittest.TestCase):
    def test_out_of_reach_cases_do_not_move_the_rate(self):
        # two ordinary checks of 10 ms, plus one out-of-reach case that times
        # out at the limit, is decided slowly or is decided fast
        ordinary = [10.0, 10.0]
        timeout = run.summarize(_timed_report(ordinary + [INF], ordinary + [8000.0],
                                              [True, True, False]), [1.0])
        slow = run.summarize(_timed_report(ordinary + [7000.0], ordinary + [7000.0],
                                           [True, True, False]), [1.0])
        fast = run.summarize(_timed_report(ordinary + [500.0], ordinary + [500.0],
                                           [True, True, False]), [1.0])
        self.assertEqual(timeout["checks_per_s"], 100.0)
        self.assertEqual(slow["checks_per_s"], 100.0)
        self.assertEqual(fast["checks_per_s"], 100.0)
        self.assertAlmostEqual(timeout["decided_share"], 2 / 3)
        self.assertEqual(fast["decided_share"], 1.0)

    def test_a_failed_ordinary_check_costs_rate_and_share(self):
        m = run.summarize(_timed_report([10.0, INF], [10.0, 8000.0], [True, True]), [1.0])
        self.assertAlmostEqual(m["checks_per_s"], 1 / 8.01)
        self.assertEqual(m["decided_share"], 0.5)
        self.assertEqual(m["check_ms_p90"], INF)


class DeclaredMetrics(unittest.TestCase):
    def test_end_to_end_names_match_benchmark_json(self):
        m = run.summarize(_timed_report([10.0], [10.0], [True]), [1.0])
        self.assertEqual(set(m), set(run.declared_metrics(0)))

    def test_per_layer_names_match_benchmark_json(self):
        names = set(spans.Tracer().metrics()) | {"trace_overhead_ratio"}
        self.assertEqual(names, set(run.declared_metrics(1)))


class _FakeCli:
    def __init__(self, body):
        self.run = body


def _spin_inside_handlers(argv):
    # the program's own handlers must not swallow the time limit
    try:
        while True:
            pass
    except ValueError:
        return 2
    except Exception:
        return 2


class TimeoutAccounting(unittest.TestCase):
    def setUp(self):
        self.old = signal.signal(signal.SIGALRM, worker._alarm)

    def tearDown(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.old)

    def test_timeout_escapes_program_handlers(self):
        start = time.perf_counter()
        status, code, _, seconds = worker.run_check(_FakeCli(_spin_inside_handlers), [], 0.2)
        self.assertEqual(status, "timeout")
        self.assertIsNone(code)
        self.assertLess(time.perf_counter() - start, 5)
        self.assertGreaterEqual(seconds, 0.2)

    def test_exit_2_and_crash_are_failures(self):
        self.assertEqual(worker.run_check(_FakeCli(lambda a: 2), [], 1)[0], "exit 2")
        status = worker.run_check(_FakeCli(lambda a: 1 / 0), [], 1)[0]
        self.assertTrue(status.startswith("crash"))
        self.assertEqual(worker.run_check(_FakeCli(lambda a: 1), [], 1)[:2], ("ok", 1))

    def test_alarm_is_disarmed_after_a_check(self):
        worker.run_check(_FakeCli(lambda a: 0), [], 0.05)
        time.sleep(0.1)  # a pending alarm would raise here


class Seeds(unittest.TestCase):
    def test_same_seed_same_digest_other_seed_other_digest(self):
        for name, build in gen.WORKLOADS.items():
            with self.subTest(workload=name):
                self.assertEqual(build(7).digest(), build(7).digest())
                self.assertNotEqual(build(7).digest(), build(8).digest())

    def test_generator_does_not_import_the_program(self):
        probe = (
            "import sys; sys.path.insert(0, sys.argv[1]); import gen\n"
            "for build in gen.WORKLOADS.values(): build(1)\n"
            "print(sorted(m for m in sys.modules if m.startswith('faircheck')))"
        )
        out = subprocess.run([sys.executable, "-c", probe, str(HERE)],
                             capture_output=True, text=True, check=True).stdout
        self.assertEqual(out.strip(), "[]")


def _fixture_workload():
    b = gen._WorkloadMaker("planted", 0)
    gf = ("G", ("F", gen.atom("result")))
    fig2 = b.system("fig2", gen.fig2())
    fig3 = b.system("fig3", gen.fig3())
    b.check("sat", fig2, gf)
    b.check("rl", fig3, gf, expect={"holds": False, "witness": {"word": ["lock"]}})
    return b.w


def _report(holds, witness):
    return json.dumps({"verdict": {"holds": holds, "witness": witness}})


class PlantedVerdicts(unittest.TestCase):
    def setUp(self):
        self.v = verify.Verifier(_fixture_workload(), oracles=verify.load_oracles())

    def test_correct_answers_pass(self):
        errors = self.v.judge({
            0: (1, _report(False, {"lasso": ";lock free"})),
            1: (1, _report(False, {"word": ["lock"]})),
        })
        self.assertEqual(errors, [])

    def test_wrong_verdict_is_rejected(self):
        errors = self.v.judge({1: (0, _report(True, None))})
        self.assertEqual(len(errors), 1)
        self.assertIn("fixture answer", errors[0])

    def test_lasso_that_satisfies_the_formula_is_rejected(self):
        errors = self.v.judge({0: (1, _report(False, {"lasso": ";request result"}))})
        self.assertIn("satisfies the formula", errors[0])

    def test_lasso_outside_the_system_is_rejected(self):
        errors = self.v.judge({0: (1, _report(False, {"lasso": ";lock lock"}))})
        self.assertIn("not a system computation", errors[0])

    def test_exit_code_must_match(self):
        errors = self.v.judge({0: (0, _report(False, {"lasso": ";lock free"}))})
        self.assertIn("exit code", errors[0])


class PlantedRelativeLiveness(unittest.TestCase):
    """The bounded lasso search judges small rl verdicts without the translator.

    brute_rl stands in for a translator bug that agrees with the planted
    verdict, so only the lasso search can catch it.
    """

    def verifier(self, brute_rl_answer):
        b = gen._WorkloadMaker("planted", 0)
        fig3 = b.system("fig3", gen.fig3())
        b.check("rl", fig3, ("G", ("F", gen.atom("result"))), small=True)
        b.check("rl", fig3, ("G", ("F", gen.atom("request"))), small=True)
        return verify.Verifier(b.w, to_buchi_positive=lambda f, letters: None,
                               oracles=_FixedBruteRl(brute_rl_answer))

    def test_correct_witness_passes(self):
        v = self.verifier(False)
        self.assertEqual(v.judge({0: (1, _report(False, {"word": ["lock"]}))}), [])

    def test_witness_with_a_satisfying_extension_is_rejected(self):
        # request result repeats forever after "request": the formula holds there
        errors = self.verifier(False).judge({0: (1, _report(False, {"word": ["request"]}))})
        self.assertEqual(len(errors), 1)
        self.assertIn("which satisfies", errors[0])

    def test_unsupported_holding_verdict_is_listed(self):
        # after "lock", no computation sees result again
        v = self.verifier(True)
        self.assertEqual(v.judge({0: (0, _report(True, None))}), [])
        self.assertEqual(len(v.unconfirmed), 1)
        self.assertIn("through lock", v.unconfirmed[0])

    def test_supported_holding_verdict_is_not_listed(self):
        v = self.verifier(True)
        self.assertEqual(v.judge({1: (0, _report(True, None))}), [])
        self.assertEqual(v.unconfirmed, [])


class _FixedBruteRl:
    def __init__(self, answer):
        self.answer = answer

    def brute_rl(self, system, positive):
        return self.answer


class PlantedAbstractionVerdicts(unittest.TestCase):
    def setUp(self):
        b = gen._WorkloadMaker("planted", 0)
        hide = b.hom("hide", gen.HIDE_HOM)
        b.abstraction(b.system("fig2", gen.fig2()), hide, ("G", ("F", gen.atom("result"))),
                      small=False)
        g = ("G", ("F", gen.atom("a")))
        b.case(["eval", "--formula", gen.text(g), "--lasso", "b;a"],
               formula=b.formula(g), lasso="b;a")
        self.v = verify.Verifier(b.w, oracles=verify.load_oracles())

    def test_preserve_must_transfer_downward(self):
        verdict = {"wcc_closed": True, "abstract_holds": True, "concrete_holds": False}
        errors = self.v.judge({0: (1, json.dumps({"verdict": verdict}))})
        self.assertIn("concrete fails", errors[0])

    def test_misplaced_padding_loop_is_rejected(self):
        # fig2 as its own canonical automaton, with a '#' loop on a state
        # whose future has visible letters
        text = gen.fig2().text().replace("alphabet: ", "alphabet: # ") + "trans: q0 # q0\n"
        errors = self.v.judge({2: (0, text)})
        self.assertIn("# loop misplaced", errors[0])

    def test_wrong_truth_value_is_rejected(self):
        self.assertEqual(self.v.judge({4: (0, _report(True, None))}), [])
        errors = self.v.judge({4: (1, _report(False, None))})
        self.assertIn("wrong truth value", errors[0])


class LassoSemantics(unittest.TestCase):
    def test_agrees_with_direct_evaluation(self):
        from faircheck.automata import Alphabet, LassoWord
        from faircheck.pltl import Labeling, evaluate_lasso, parse_formula

        rng = random.Random(3)
        letters = ("a", "b", "c")
        labeling = Labeling.canonical(Alphabet(letters))
        for _ in range(300):
            f = gen.random_formula(rng, letters, 4)
            stem, cycle = verify._lasso(gen.random_lasso(rng, letters))
            want = evaluate_lasso(LassoWord(stem, cycle), labeling, parse_formula(gen.text(f)))
            self.assertEqual(verify.holds_on(f, stem, cycle), want, gen.text(f))


class Tracing(unittest.TestCase):
    def test_install_and_uninstall_restore_every_function(self):
        import faircheck.cli  # noqa: F401

        before = {(m.__name__, k): v for m in spans.faircheck_modules() for k, v in vars(m).items()}
        self.assertEqual(spans.wrapped_count(), 0)
        tracer = spans.Tracer()
        tracer.install()
        try:
            self.assertGreater(spans.wrapped_count(), 0)
        finally:
            tracer.uninstall()
        self.assertEqual(spans.wrapped_count(), 0)
        after = {(m.__name__, k): v for m in spans.faircheck_modules() for k, v in vars(m).items()}
        self.assertTrue(all(after[k] is v for k, v in before.items()))

    def test_self_time_excludes_children(self):
        import faircheck.cli as cli
        import io
        import contextlib

        fixtures = HERE.parent / "fixtures"
        tracer = spans.Tracer()
        tracer.install()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                cli.run(["check", "rl", "--system", str(fixtures / "fig2.aut"), "--formula", "G F result"])
        finally:
            tracer.uninstall()
        m = tracer.metrics()
        total = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS)
        root = [s for s in tracer.spans if s[1] is None]
        self.assertEqual(len(root), 1)
        self.assertAlmostEqual(total, root[0][5] - root[0][4], places=6)
        self.assertEqual(m["pltl.to_buchi.calls"], 1)
        self.assertGreater(m["relprops.is_relative_liveness.s"], 0)


if __name__ == "__main__":
    unittest.main()
