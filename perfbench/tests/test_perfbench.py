"""Tests of the benchmark's own code: spans, statistics, speed probes and
answer checks."""

import signal
import statistics
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

from perfbench import spans, speed, stats, workloads  # noqa: E402
from perfbench.run import Outcome, run_task  # noqa: E402
from perfbench.workloads import CENSUS_Q3, CliExit, Task, census_summary  # noqa: E402


def scripted_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_subtracts_direct_children_only():
    # outer [0, 10] holds a [1, 3] and b [4, 8]; b holds c [5, 6].
    rec = spans.SpanRecorder(clock=scripted_clock([0, 1, 3, 4, 5, 6, 8, 10]))
    outer = rec.begin(rec.name_id("outer"))
    a = rec.begin(rec.name_id("a"))
    rec.finish(a)
    b = rec.begin(rec.name_id("b"))
    c = rec.begin(rec.name_id("c"))
    rec.finish(c)
    rec.finish(b)
    rec.finish(outer)
    assert list(rec.self_times()) == [4, 2, 3, 1]
    assert list(rec.parent) == [-1, 0, 0, 2]
    assert rec.nesting_errors() == []


def test_spans_survive_a_write_and_read(tmp_path):
    rec = spans.SpanRecorder(clock=scripted_clock([0.5, 1.5, 2.0, 3.25]))
    rec.task_id = 7
    outer = rec.begin(rec.name_id("outer"))
    inner = rec.begin(rec.name_id("inner"))
    rec.finish(inner)
    rec.finish(outer)
    rec.counts["field_ops"] = 12
    path = str(tmp_path / "spans.bin.gz")
    rec.write(path)
    back = spans.SpanRecorder.read(path)
    assert back.names == ["outer", "inner"] and back.counts == {"field_ops": 12}
    for column, _ in spans.COLUMNS:
        assert getattr(back, column) == getattr(rec, column)
    assert list(back.task) == [7, 7] and list(back.self_times()) == [2.25, 0.5]


def test_nesting_errors_report_broken_spans():
    rec = spans.SpanRecorder(clock=scripted_clock([0, 1, 5, 3, 4]))
    outer = rec.begin(rec.name_id("outer"))
    inner = rec.begin(rec.name_id("inner"))
    rec.finish(inner)
    rec.finish(outer)  # ends at 3, before its child ends at 5
    assert any("outside its parent" in e for e in rec.nesting_errors())
    rec.begin(rec.name_id("left open"))
    assert any("still open" in e for e in rec.nesting_errors())


def test_quartiles_match_the_standard_library():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
    q1, q2, q3 = stats.quartiles(values)
    assert [q1, q2, q3] == statistics.quantiles(values, n=4)
    assert q2 == stats.median(values) == 3.75
    assert stats.relative_spread(values) == pytest.approx((q3 - q1) / q2)
    assert stats.quartiles([2.0]) == (2.0, 2.0, 2.0)
    with pytest.raises(ValueError):
        stats.median([])


def test_speed_probe_samples_the_interval_and_restores_the_timer():
    before = signal.getsignal(signal.SIGALRM)
    probe = speed.SpeedProbe()
    probe.start()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 0.2:
        pass
    busy = probe.stop()
    # one probe before, one after, and about one per interval in between
    assert len(probe.probes) >= 2 + 0.2 / speed.INTERVAL_S / 2
    assert 0.1 < busy < 0.2 + speed.INTERVAL_S
    assert probe.mean() == statistics.fmean(probe.probes)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == before
    assert speed.scale(2.0, 2 * speed.REF_PROBE_S) == pytest.approx(1.0)


def checked(task):
    outcome = Outcome({task.name: []})
    run_task(task, outcome)
    return outcome


def test_checker_rejects_a_wrong_dimension():
    assert checked(Task("quot_tangent.d4", lambda: 8, 8)).failed == 0
    outcome = checked(Task("quot_tangent.d4", lambda: 9, 8))
    assert (outcome.attempted, outcome.failed) == (1, 1)


def test_checker_rejects_a_wrong_census_count():
    rows = [{"label": k.split("/")[0], "tensor_class": k.split("/")[1], "count": c}
            for k, c in CENSUS_Q3["counts"].items()]
    report = {k: CENSUS_Q3[k] for k in ("quot_classes", "total_points",
                                        "border_rank_3", "forced_failures")}
    report["counts"] = rows
    assert checked(Task("census", lambda: census_summary(report), CENSUS_Q3)).failed == 0
    wrong_total = dict(report, total_points=2153)
    assert checked(Task("census", lambda: census_summary(wrong_total), CENSUS_Q3)).failed == 1
    wrong_row = dict(report, counts=[dict(rows[0], count=rows[0]["count"] + 1)] + rows[1:])
    assert checked(Task("census", lambda: census_summary(wrong_row), CENSUS_Q3)).failed == 1


def test_checker_counts_exceptions_and_cli_exit_codes():
    def cli_fails():
        raise CliExit("quotbilin tangent quot exited with 3")
    assert checked(Task("cli", cli_fails, 8)).failed == 1


# The tasks of each workload that take about a second or less, among them a
# generic random input of every seeded kind; the full lists take about a
# minute per seed and are checked by running the benchmark itself.
CHEAP = {
    "tangent-q": {"bilin_tangent.main.d2", "bilin_tangent.main.d3", "quot_tangent.d3",
                  "quot_tangent.d4", "secant_dimension.d3.r5"},
    "oracle-fp": {"hom_triple_check.degenerate.d2", "hom_triple_check.main.d3",
                  "hom_KM_univariate.d6.r2", "hom_KM_univariate.d6.r3"},
    "census-f3": {"enumerate_222.q2"},
}


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_answers_hold_under_two_seeds(workload, seed, tmp_path):
    wl = workloads.setup(workload, seed, str(tmp_path))
    assert wl.largest in {t.name for t in wl.tasks}
    tasks = [t for t in wl.tasks if t.name in CHEAP[workload]]
    assert len(tasks) == len(CHEAP[workload])
    for task in tasks:
        assert checked(task).failed == 0, task.name


def test_traced_spans_nest_and_instrumentation_is_undone(tmp_path):
    from quotbilin import bilin, exactalg, quot

    originals = (exactalg.Matrix.rref, quot.kernel_presentation, bilin.kernel_presentation)
    wl = workloads.setup("oracle-fp", 0, str(tmp_path))
    (task,) = [t for t in wl.tasks if t.name == "hom_triple_check.degenerate.d2"]
    rec = spans.SpanRecorder()
    restore = spans.instrument(rec)
    try:
        assert checked(task).failed == 0
    finally:
        restore()
    assert (exactalg.Matrix.rref, quot.kernel_presentation, bilin.kernel_presentation) == originals
    assert rec.nesting_errors() == []
    metrics = spans.layer_metrics(rec)
    # calls_per_triple counts only kernel_presentation spans nested under
    # extract_hom_triple, and every triple needs at least one presentation.
    assert metrics["quot.kernel_presentation.calls_per_triple"] >= 1.0
    assert metrics["exactalg.rref.calls"] > 0 and metrics["exactalg.field_ops"] > 0
    assert metrics["bilin.hom_triple_check.self_s"] > 0
