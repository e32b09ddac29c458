"""Pivot/compare tables over RunResult sets."""

from repro.analysis import compare_results, results_table, summarize_results
from repro.experiments import RunResult


def result(dag="chain:3", model="oneshot", method="greedy", red=2,
           cost="4", status="ok", cached=False, wall=0.1):
    return RunResult(
        spec="s", dag=dag, model=model, method=method, red_limit=red,
        cost=cost if status == "ok" else None, status=status,
        cached=cached, wall_time=wall,
    )


class TestResultsTable:
    def test_pivot_one_row_per_instance(self):
        rows = results_table([
            result(method="greedy", cost="4"),
            result(method="exact", cost="2"),
            result(dag="chain:4", method="greedy", cost="6"),
            result(dag="chain:4", method="exact", cost="6"),
        ])
        assert len(rows) == 2
        assert rows[0]["greedy"] == "4" and rows[0]["exact"] == "2"

    def test_failed_cells_show_status(self):
        rows = results_table([result(status="timeout")])
        assert rows[0]["greedy"] == "timeout"

    def test_missing_cells_blank(self):
        rows = results_table([
            result(method="greedy"),
            result(dag="chain:4", method="exact"),
        ])
        assert rows[0]["exact"] == ""


class TestCompareResults:
    def test_ratio(self):
        a = [result(cost="4")]
        b = [result(cost="6")]
        rows = compare_results(a, b)
        assert rows[0]["ratio"] == "1.50"

    def test_equal_costs(self):
        rows = compare_results([result()], [result()])
        assert rows[0]["ratio"] == "1.00"

    def test_zero_baseline(self):
        rows = compare_results([result(cost="0")], [result(cost="3")])
        assert rows[0]["ratio"] == "inf"

    def test_unmatched_cells_kept(self):
        rows = compare_results([result()], [result(dag="chain:9")])
        assert len(rows) == 2
        assert rows[0]["candidate"] == ""  # baseline-only cell
        assert rows[1]["baseline"] == "" and rows[1]["candidate"] == "4"

    def test_failed_cell_no_ratio(self):
        rows = compare_results([result()], [result(status="error")])
        assert rows[0]["ratio"] == ""

    def test_custom_labels(self):
        rows = compare_results([result()], [result()], labels=("before", "after"))
        assert rows[0]["before"] == "4" and rows[0]["after"] == "4"


class TestSummarize:
    def test_counters(self):
        summary = summarize_results([
            result(), result(status="timeout"),
            result(cached=True), result(status="error"),
        ])
        assert summary["tasks"] == 4
        assert summary["ok"] == 2
        assert summary["timeout"] == 1
        assert summary["error"] == 1
        assert summary["cached"] == 1
