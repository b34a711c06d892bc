"""Tests of the benchmark's own arithmetic, accounting and tracing.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import numpy as np
import pytest

from layers import fit_metrics, parse_importtime
from spans import Span, Tracer, patched, self_times
from summary import Tally, tail
from workloads import FitBatch, check_fit, fit_case, fit_cases


class TestTail:
    def test_needs_more_than_ten_samples(self):
        assert tail(list(range(10))) is None

    def test_eleven_samples_give_the_smallest(self):
        value, pct, n = tail([float(v) for v in range(11, 0, -1)])
        assert (value, n) == (1.0, 11)
        assert pct == pytest.approx(100.0 / 11)

    def test_hundred_samples_give_p90(self):
        values = list(np.random.default_rng(0).permutation(100) + 1)
        value, pct, n = tail(values)
        assert (value, pct, n) == (90, 90.0, 100)
        assert sum(v > value for v in values) == 10


class TestTally:
    def test_counts_each_operation_once(self):
        tally = Tally()
        assert tally.record("a", [])
        assert tally.record("b", [None, 0, ""])  # falsy entries are no problem
        assert not tally.record("c", ["exit 2", "output differs"])
        assert not tally.record("d", ["raised ValueError"])
        assert (tally.attempted, tally.failed) == (4, 2)
        assert tally.fail_frac == 0.5
        assert tally.reasons == ["c: exit 2; output differs", "d: raised ValueError"]

    def test_empty_tally(self):
        assert Tally().fail_frac == 0.0

    def test_check_fit_flags_a_wrong_answer(self):
        case = fit_cases(1)[0]
        truth = dict(case.truth, omega0=0.0, theta=0.0)
        good = {"converged": True, "params": truth}
        off = {"converged": False, "params": dict(truth, kappa_e=1.03 * truth["kappa_e"])}
        assert check_fit(case, good) == []
        problems = check_fit(case, off)
        assert problems[0] == "did not converge" and "kappa_e" in problems[1]
        tally = Tally()
        tally.record("bad", problems)
        assert tally.fail_frac == 1.0


def _span(i, start, end, parent=None, name="x"):
    return Span(i, name, start, end, parent, None)


class TestSelfTime:
    def test_children_are_subtracted_once(self):
        spans = [_span(0, 0.0, 10.0),
                 _span(1, 1.0, 3.0, 0), _span(2, 2.0, 5.0, 0),  # overlap: covers 1..5
                 _span(3, 8.0, 12.0, 0),                          # clipped at 10
                 _span(4, 1.5, 2.5, 1)]                           # grandchild
        selfs = self_times(spans)
        assert selfs[0] == pytest.approx(10.0 - 4.0 - 2.0)
        assert selfs[1] == pytest.approx(2.0 - 1.0)
        assert selfs[4] == pytest.approx(1.0)

    def test_tracer_nests_spans(self):
        tracer = Tracer()
        tracer.op = "op-1"
        with tracer.span("outer"):
            with tracer.span("inner") as info:
                info["k"] = 1
        with tracer.span("next"):
            pass
        outer, inner, nxt = tracer.spans
        assert (outer.parent, inner.parent, nxt.parent) == (None, 0, None)
        assert inner.info == {"k": 1} and inner.op == "op-1"
        assert outer.start <= inner.start <= inner.end <= outer.end
        assert self_times(tracer.spans)[0] <= outer.duration

    def test_lsq_metrics_from_synthetic_spans(self):
        spans = [_span(0, 0.0, 10.0, name="fit_bare"),
                 _span(1, 1.0, 4.0, 0, "lsq"), _span(2, 1.0, 2.0, 1, "residual"),
                 _span(3, 5.0, 9.0, 0, "lsq"), _span(4, 5.0, 6.0, 3, "residual"),
                 _span(5, 6.0, 8.0, 3, "residual")]
        spans[1].info.update(iterations=2, converged=True)
        spans[3].info.update(iterations=3, converged=False)
        for m in ("pumped", "psd"):
            base = len(spans)
            spans += [_span(base, 20.0, 21.0, name=f"fit_{m}"),
                      _span(base + 1, 20.0, 20.5, base, "lsq")]
            spans[-1].info.update(iterations=1, converged=True)
        m = fit_metrics(spans)
        assert m["lsq.runs_per_fit.bare"][0] == 2
        assert m["lsq.iterations_per_fit.bare"][0] == 5
        assert m["lsq.residual_evals_per_fit.bare"][0] == 3
        assert m["lsq.nonconverged_frac.bare"][0] == 0.5
        assert m["lsq.residual_ms_per_fit.bare"][0] == pytest.approx(4e3)
        assert m["lsq.self_ms_per_fit.bare"][0] == pytest.approx(3e3)
        assert m["fitting.self_ms_per_fit.bare"][0] == pytest.approx(3e3)
        assert m["fitting.stage2_rounds_per_fit.bare"][0] == 1
        assert m["fitting.stage3_ms_per_fit.bare"][0] == pytest.approx(4e3)
        assert "fitting.stage2_rounds_per_fit.psd" not in m


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   numpy.core",
        "import time:        50 |        150 | numpy",
        "import time:        30 |         30 |     scipy._lib",
        "import time:        20 |         50 |   scipy.constants",
        "import time:         5 |         55 | scipy",
        "import time:        10 |        215 | photonpressure",
        "unrelated line",
    ])
    cumulative, self_sum = parse_importtime(text)
    assert cumulative == {"numpy": 150, "scipy": 55, "photonpressure": 215}
    assert self_sum == {"numpy": 150, "scipy": 55, "photonpressure": 10}


def test_tracing_does_not_change_fit_results():
    plain = [fit_case(case) for case in fit_cases(3)]
    tracer = Tracer()
    with patched(tracer):
        traced = [fit_case(case) for case in fit_cases(3)]
    assert plain == traced
    names = {s.name for s in tracer.spans}
    assert {"lsq", "residual", "extract_current_psd"} <= names

    from photonpressure import fitting, lsq, noise
    assert fitting.least_squares is lsq.least_squares
    assert noise.extract_current_psd.__module__ == "photonpressure.noise"


def test_lsq_counts_repeat_for_a_seed(tmp_path):
    def counts():
        tracer, tally = Tracer(), Tally()
        with patched(tracer):
            FitBatch(5, tmp_path).cycle(0, tally, tracer)
        assert tally.failed == 0
        return {k: v for k, v in fit_metrics(tracer.spans).items()
                if "_per_fit" in k and "_ms_" not in k}

    assert counts() == counts()
