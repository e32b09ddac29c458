"""Tests for table generation, ASCII plotting and ratio experiments."""

from repro import PebblingInstance
from repro.analysis import (
    RatioPoint,
    ascii_plot,
    greedy_grid_ratio_sweep,
    greedy_vs_optimal,
    render_table,
    table1_rows,
    table2_rows,
)
from repro.generators import pyramid_dag


class TestTable1:
    def test_four_rows_in_model_order(self):
        rows = table1_rows()
        assert [r["model"] for r in rows] == ["base", "oneshot", "nodel", "compcost"]

    def test_matches_paper_entries(self):
        rows = {r["model"]: r for r in table1_rows()}
        assert rows["oneshot"]["compute"] == "0,inf,inf,..."
        assert rows["nodel"]["delete"] == "inf"
        assert rows["compcost"]["compute"] == "1/100"
        assert all(r["blue_to_red"] == "1" for r in rows.values())

    def test_custom_epsilon(self):
        rows = {r["model"]: r for r in table1_rows(epsilon="1/10")}
        assert rows["compcost"]["compute"] == "1/10"


class TestTable2:
    def test_four_rows_with_expected_columns(self):
        rows = table2_rows()
        assert len(rows) == 4
        for row in rows:
            assert set(row) == {
                "model", "cost_range", "optimal_length", "complexity",
                "greedy_ratio",
            }

    def test_cost_ranges_computed_from_bounds(self):
        dag = pyramid_dag(2)
        rows = {r["model"]: r for r in table2_rows(dag, 3)}
        # nodel lower bound n - R = 6 - 3 on the 6-node pyramid
        assert rows["nodel"]["cost_range"].startswith("[3, 30]")
        assert rows["oneshot"]["cost_range"].startswith("[0, 30]")

    def test_lemma1_reflected(self):
        rows = {r["model"]: r for r in table2_rows()}
        assert "O(Delta*n)" in rows["oneshot"]["optimal_length"]
        assert "poly" in rows["base"]["optimal_length"]


class TestRenderTable:
    def test_alignment_and_content(self):
        text = render_table(
            [{"a": 1, "b": "xx"}, {"a": 222, "b": "y"}], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert len({len(l) for l in lines[1:]}) <= 2  # header sep may differ

    def test_empty(self):
        assert render_table([], title="x") == "x"

    def test_column_selection(self):
        text = render_table([{"a": 1, "b": 2}], columns=["b"])
        assert "a" not in text.splitlines()[0]


class TestAsciiPlot:
    def test_contains_markers_and_labels(self):
        text = ascii_plot(
            {"s1": [(0, 0), (1, 1)], "s2": [(0, 1), (1, 0)]},
            title="P", x_label="R", y_label="cost",
        )
        assert "P" in text
        assert "*" in text and "o" in text
        assert "s1" in text and "s2" in text

    def test_empty(self):
        assert ascii_plot({}, title="none") == "none"

    def test_single_point_no_crash(self):
        assert "*" in ascii_plot({"s": [(1, 1)]})


class TestRatioExperiments:
    def test_ratio_point_math(self):
        from fractions import Fraction

        p = RatioPoint(n_nodes=5, greedy_cost=Fraction(6), optimal_cost=Fraction(2))
        assert p.ratio == 3.0
        z = RatioPoint(n_nodes=5, greedy_cost=Fraction(0), optimal_cost=Fraction(0))
        assert z.ratio == 1.0
        inf = RatioPoint(n_nodes=5, greedy_cost=Fraction(1), optimal_cost=Fraction(0))
        assert inf.ratio == float("inf")

    def test_greedy_vs_optimal_on_pyramid(self):
        inst = PebblingInstance(dag=pyramid_dag(2), model="oneshot", red_limit=3)
        p = greedy_vs_optimal(inst)
        assert p.greedy_cost >= p.optimal_cost
        assert p.n_nodes == 6

    def test_grid_sweep_ratio_grows(self):
        points = greedy_grid_ratio_sweep([(3, 5), (5, 12)])
        assert len(points) == 2
        assert points[1].ratio > points[0].ratio
