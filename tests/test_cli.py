"""End-to-end tests for the command-line interface."""

import pytest

from repro.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestInfo:
    def test_pyramid(self, capsys):
        code, out = run(capsys, "info", "--dag", "pyramid:3")
        assert code == 0
        assert "nodes        : 10" in out

    def test_all_generator_specs(self, capsys):
        for spec in ["chain:5", "tree:4", "grid:2x3", "butterfly:2", "matmul:2"]:
            code, out = run(capsys, "info", "--dag", spec)
            assert code == 0 and "nodes" in out

    def test_json_file(self, tmp_path, capsys):
        from repro import ComputationDAG
        from repro.io import dag_to_json

        path = tmp_path / "dag.json"
        path.write_text(dag_to_json(ComputationDAG([("a", "b")])))
        code, out = run(capsys, "info", "--dag", f"@{path}")
        assert code == 0 and "nodes        : 2" in out

    def test_unknown_spec(self):
        with pytest.raises(SystemExit):
            main(["info", "--dag", "klein-bottle:4"])


class TestSolve:
    def test_exact_cost_reported(self, capsys):
        code, out = run(capsys, "solve", "--dag", "chain:5", "--red", "2")
        assert code == 0
        assert "optimal  : 0" in out

    @pytest.mark.parametrize(
        "model,name",
        [("oneshot", "loads"), ("compcost", "computes"), ("nodel", "none")],
    )
    def test_bound_reported(self, capsys, model, name):
        code, out = run(
            capsys, "solve", "--dag", "pyramid:2", "--red", "3", "--model", model
        )
        assert code == 0
        assert f"heuristic: {name}\n" in out

    def test_show_schedule(self, capsys):
        code, out = run(
            capsys, "solve", "--dag", "chain:3", "--red", "2", "--show-schedule"
        )
        assert "C(0)" in out

    def test_model_flag(self, capsys):
        code, out = run(
            capsys, "solve", "--dag", "chain:5", "--red", "2", "--model", "nodel"
        )
        assert "optimal  : 3" in out

    @pytest.mark.parametrize("engine", ["par", "legacy"])
    def test_unknown_engine_rejected_by_the_parser(self, capsys, engine):
        with pytest.raises(SystemExit) as info:
            main(["solve", "--dag", "pyramid:3", "--engine", engine])
        assert info.value.code == 2
        assert f"invalid choice: '{engine}'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--dag", "chain:70", "--red", "2", "--engine", "numpy"],
             "at most 64 nodes"),
        ],
        ids=["numpy-too-wide"],
    )
    def test_bad_engine_exits_with_one_line(self, argv, message):
        with pytest.raises(SystemExit) as info:
            main(["solve", *argv])
        assert message in str(info.value.code)
        assert "\n" not in str(info.value.code)

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["solve", "--dag", "grid:4x4", "--red", "3", "--budget", "10"],
             "budget exhausted after 10 state expansions"),
            (["solve", "--dag", "pyramid:3", "--red", "1"],
             "no pebbling exists with R=1"),
            (["greedy", "--dag", "pyramid:3", "--red", "1"],
             "no pebbling exists with R=1"),
            (["baseline", "--dag", "pyramid:3", "--red", "1"],
             "no pebbling exists with R=1"),
        ],
        ids=["budget", "solve-infeasible", "greedy-infeasible",
             "baseline-infeasible"],
    )
    def test_pebbling_error_exits_with_one_line(self, argv, message):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert message in str(info.value.code)
        assert "\n" not in str(info.value.code)


class TestHeuristics:
    def test_greedy(self, capsys):
        code, out = run(capsys, "greedy", "--dag", "pyramid:3")
        assert code == 0 and "cost" in out

    def test_greedy_rules(self, capsys):
        for rule in ["most-red-inputs", "fewest-blue-inputs", "red-ratio"]:
            code, out = run(
                capsys, "greedy", "--dag", "pyramid:2", "--rule", rule
            )
            assert code == 0 and rule in out

    def test_baseline_within_bound(self, capsys):
        code, out = run(capsys, "baseline", "--dag", "grid:3x3")
        assert code == 0 and "bound" in out


class TestExperiments:
    def test_tradeoff_plot(self, capsys):
        code, out = run(capsys, "tradeoff", "--d", "2", "--chain", "6")
        assert code == 0
        assert "opt(R)" in out

    def test_hampath_agrees_with_truth(self, capsys):
        code, out = run(capsys, "hampath", "--n", "5", "--p", "0.5", "--seed", "3")
        assert code == 0
        lines = [l for l in out.splitlines() if "hamiltonian=" in l]
        verdicts = {l.split("hamiltonian=")[1] for l in lines}
        assert len(verdicts) == 1  # pebbling verdict == ground truth

    def test_tables(self, capsys):
        code, out = run(capsys, "table1")
        assert "0,inf,inf,..." in out
        code, out = run(capsys, "table2")
        assert "NP-complete" in out
