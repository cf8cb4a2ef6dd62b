"""End-to-end CLI workflows in a temporary directory."""

import json
import re

import numpy as np
import pytest

from greensched import cli, sim
from greensched.cli import build_parser, main
from greensched.errors import ConfigurationError
from greensched.power import ThermalState, total_power
from greensched.scenario import FIXTURES, load_scenario, load_server_spec

SMALL_WORKLOAD = """task_id,type,n_ins,period_s,deadline_s,n_jobs
0,REAL,200000000,1.0,1.0,6
1,CTRL,100000000,1.0,1.0,6
2,SOFT,100000000,1.0,0.8,6
"""
WORKLOAD_HEADER = SMALL_WORKLOAD.splitlines()[0]


@pytest.fixture
def scenario(tmp_path):
    (tmp_path / "workload.csv").write_text(SMALL_WORKLOAD)
    doc = {
        "cluster": [{"server": "intel_xeon_e5620.json", "count": 2}],
        "thermal": {"t_cpu_k": [301.0], "t_mem_k": 301.0},
        "workload": "workload.csv",
        "soft_constraints": {"2": [[0.0, 0.2]]},
        "optimizer": {
            "population": 12,
            "generations": 30,
            "seed": 1,
            "stop_window": 30,
            "policy": "VAR",
            "share_step": 100,
        },
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc, indent=2))
    return path


def read_all(outdir):
    return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}


class TestGenerate:
    def test_writes_trace(self, scenario, tmp_path):
        out = tmp_path / "out"
        assert main(["generate", "--scenario", str(scenario), "--out", str(out)]) == 0
        text = (out / "trace.csv").read_text()
        assert text.startswith("# seed=1 generator=numpy-PCG64")
        assert len(text.splitlines()) == 2 + 18  # header comment + columns + jobs

    def test_byte_identical_reruns(self, scenario, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(["generate", "--scenario", str(scenario), "--out", str(out1)])
        main(["generate", "--scenario", str(scenario), "--out", str(out2)])
        assert read_all(out1) == read_all(out2)


class TestOptimize:
    def test_full_workflow_and_round_trip(self, scenario, tmp_path):
        out = tmp_path / "opt"
        assert main(["optimize", "--scenario", str(scenario), "--out", str(out)]) == 0
        front = (out / "front.csv").read_text().splitlines()
        assert front[1] == "lambda,energy_J,energy_units,dvfs_modes,shares_flat"
        assert len(front) > 2
        conv = (out / "convergence.csv").read_text().splitlines()
        assert conv[1] == "generation,best_lambda,best_energy_J"

        best = json.loads((out / "best_allocation.json").read_text())
        assert len(best["dvfs"]) == 2
        assert len(best["shares"]) == 3
        for row in best["shares"]:
            assert sum(row) == 100

        sim_out = tmp_path / "sim"
        rc = main(
            [
                "simulate",
                "--scenario", str(scenario),
                "--allocation", str(out / "best_allocation.json"),
                "--out", str(sim_out),
            ]
        )
        assert rc == 0
        summary = json.loads((sim_out / "simulate_summary.json").read_text())
        # replaying the saved best allocation reproduces its recorded objectives
        assert summary["lambda"] == best["lambda"]
        assert summary["energy_J"] == best["energy_J"]

    def test_byte_identical_reruns(self, scenario, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            main(["optimize", "--scenario", str(scenario), "--out", str(out)])
        assert read_all(out1) == read_all(out2)

    def test_policy_override_changes_modes(self, scenario, tmp_path):
        out = tmp_path / "min"
        main(
            [
                "optimize",
                "--scenario", str(scenario),
                "--policy", "min",
                "--out", str(out),
            ]
        )
        best = json.loads((out / "best_allocation.json").read_text())
        assert best["dvfs"] == [1, 1]


class TestSimulate:
    def test_shape_mismatch_reports_error(self, scenario, tmp_path):
        alloc = tmp_path / "alloc.json"
        alloc.write_text(json.dumps({"dvfs": [1], "shares": [[100]]}))
        rc = main(
            [
                "simulate",
                "--scenario", str(scenario),
                "--allocation", str(alloc),
                "--out", str(tmp_path / "x"),
            ]
        )
        assert rc == 4

    @pytest.mark.parametrize(
        "doc,field",
        [
            ({"dvfs": [6, 6]}, ": shares: required field is missing"),
            ({"shares": [[100, 0], [0, 100], [50, 50]]}, ": dvfs: required field is missing"),
            ({"dvfs": [6, "fast"], "shares": [[100, 0], [0, 100], [50, 50]]},
             ": dvfs[1]: expected an integer"),
            ({"dvfs": [6, 6], "shares": [[100, 0], [0, 100], [50.5, 49.5]]},
             ": shares[2][0]: expected an integer"),
            ({"dvfs": [6, 6], "shares": 100}, ": shares: expected a list"),
            ([6, 6], ": top level: expected a JSON object"),
        ],
        ids=["no-shares", "no-dvfs", "str-mode", "float-share", "shares-not-list", "not-object"],
    )
    def test_malformed_allocation_is_parse_error(self, scenario, tmp_path, capsys, doc, field):
        alloc = tmp_path / "alloc.json"
        alloc.write_text(json.dumps(doc))
        rc = main(
            [
                "simulate",
                "--scenario", str(scenario),
                "--allocation", str(alloc),
                "--out", str(tmp_path / "x"),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert str(alloc) in err and field in err

    @pytest.mark.parametrize(
        "dvfs, row, message",
        [
            ([1, 1, 1], [10**30, 100 - 10**30, 0],
             "task 0: shares must be >= 0 and sum to 100, got "
             "[1000000000000000000000000000000, -999999999999999999999999999900, 0]"),
            ([2**63, 1, 1], [100, 0, 0],
             "mode index 9223372036854775808 out of range for server 0"),
        ],
        ids=["share-past-int64", "mode-past-int64"],
    )
    def test_integer_past_int64_is_named(self, tmp_path, capsys, dvfs, row, message):
        # Such values do not fit an int64 block; the message quotes the file's ints.
        alloc = tmp_path / "alloc.json"
        alloc.write_text(json.dumps({"dvfs": dvfs, "shares": [row] + [[100, 0, 0]] * 8}))
        rc = main(["simulate", "--scenario", str(FIXTURES / "scenario_amd.json"),
                   "--allocation", str(alloc), "--out", str(tmp_path / "x")])
        assert rc == 4
        assert f"error: {message}\n" == capsys.readouterr().err

    def test_jobs_csv_columns(self, scenario, tmp_path):
        alloc = tmp_path / "alloc.json"
        alloc.write_text(
            json.dumps({"dvfs": [6, 6], "shares": [[100, 0], [0, 100], [50, 50]]})
        )
        out = tmp_path / "sim"
        assert (
            main(
                [
                    "simulate",
                    "--scenario", str(scenario),
                    "--allocation", str(alloc),
                    "--out", str(out),
                ]
            )
            == 0
        )
        lines = (out / "simulate_jobs.csv").read_text().splitlines()
        assert lines[1] == (
            "task_id,job_index,server_set,start_s,completion_s,overrun_s,missed,aborted"
        )
        assert len(lines) == 2 + 18
        # server_set column reflects the allocation rows
        first = lines[2].split(",")
        assert first[0] == "0" and first[2] == "0"

    def test_malformed_trace_row_is_parse_error(self, scenario, tmp_path, capsys):
        alloc = tmp_path / "alloc.json"
        alloc.write_text(
            json.dumps({"dvfs": [6, 6], "shares": [[100, 0], [0, 100], [50, 50]]})
        )
        trace = tmp_path / "trace.csv"
        trace.write_text(
            "# seed=1 horizon_s=10.0\n"
            "task_id,job_index,arrival_s,deadline_s,work_instructions\n"
            "x,0,0.0,1.0,5\n"
        )
        rc = main(
            [
                "simulate",
                "--scenario", str(scenario),
                "--allocation", str(alloc),
                "--trace", str(trace),
                "--out", str(tmp_path / "x"),
            ]
        )
        assert rc == 2
        assert "row 3" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "row,message",
        [
            ("0,0,0.0,1.0,-5", "work_instructions must be >= 0, got -5"),
            ("0,0,inf,1.0,5", "arrival_s must be finite, got inf"),
            ("0,0,nan,1.0,5", "arrival_s must be finite, got nan"),
            ("0,0,0.0,nan,5", "deadline_s must be finite, got nan"),
            ("0,0,1.0,0.5,5", "deadline_s 0.5 is before arrival_s 1.0"),
            ("0,-1,0.0,1.0,5", "job_index must be >= 0, got -1"),
            ("0,1,1.0,2.0,5", "job 1 of task 0 is listed twice"),
        ],
        ids=["negative-work", "infinite-arrival", "nan-arrival", "nan-deadline",
             "deadline-before-arrival", "negative-job-index", "repeated-job"],
    )
    def test_out_of_range_trace_row_is_parse_error(self, scenario, tmp_path, capsys, row, message):
        alloc = tmp_path / "alloc.json"
        alloc.write_text(
            json.dumps({"dvfs": [6, 6], "shares": [[100, 0], [0, 100], [50, 50]]})
        )
        trace = tmp_path / "trace.csv"
        trace.write_text(
            "# seed=1 horizon_s=10.0\n"
            "task_id,job_index,arrival_s,deadline_s,work_instructions\n"
            "0,1,1.0,2.0,5\n"
            f"{row}\n"
        )
        rc = main(
            [
                "simulate",
                "--scenario", str(scenario),
                "--allocation", str(alloc),
                "--trace", str(trace),
                "--out", str(tmp_path / "x"),
            ]
        )
        assert rc == 2
        assert f"{trace}: row 4: {message}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_first_of_two_bad_trace_rows_is_named(self, scenario, tmp_path, capsys):
        alloc = tmp_path / "alloc.json"
        alloc.write_text(
            json.dumps({"dvfs": [6, 6], "shares": [[100, 0], [0, 100], [50, 50]]})
        )
        trace = tmp_path / "trace.csv"
        trace.write_text(
            "# seed=1 horizon_s=10.0\n"
            "task_id,job_index,arrival_s,deadline_s,work_instructions\n"
            "0,1,1.0,2.0,5\n"
            "0,0,0.0,1.0,5\n"
            "0,1,1.0,2.0,5\n"
            "0,-2,0.0,1.0,5\n"
        )
        rc = main(
            [
                "simulate",
                "--scenario", str(scenario),
                "--allocation", str(alloc),
                "--trace", str(trace),
                "--out", str(tmp_path / "x"),
            ]
        )
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {trace}: row 5: job 1 of task 0 is listed twice\n"
        )

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda rows: ["99" + rows[0][1:]] + rows[1:],
             "jobs of task(s) [99] that the scenario does not declare"),
            (lambda rows: [r for r in rows if not r.startswith("0,")], "no jobs of task(s) [0]"),
            (None, "row 1: missing trace header comment"),
        ],
        ids=["undeclared-task", "jobless-task", "no-header-comment"],
    )
    def test_trace_of_other_tasks_is_parse_error(self, scenario, tmp_path, capsys, edit, message):
        # edit=None: the scenario's own jobs, without the trace's header comment.
        alloc = tmp_path / "alloc.json"
        alloc.write_text(
            json.dumps({"dvfs": [6, 6], "shares": [[100, 0], [0, 100], [50, 50]]})
        )
        main(["generate", "--scenario", str(scenario), "--out", str(tmp_path / "g")])
        comment, columns, *rows = (tmp_path / "g" / "trace.csv").read_text().splitlines()
        assert rows[0].startswith("0,")
        trace = tmp_path / "trace.csv"
        trace.write_text("\n".join([columns, *rows] if edit is None
                                   else [comment, columns, *edit(rows)]) + "\n")
        rc = main(
            [
                "simulate",
                "--scenario", str(scenario),
                "--allocation", str(alloc),
                "--trace", str(trace),
                "--out", str(tmp_path / "x"),
            ]
        )
        assert rc == 2
        assert capsys.readouterr().err == f"error: {trace}: {message}\n"
        assert not (tmp_path / "x").exists()


class TestBaseline:
    def test_runs_and_is_deterministic(self, scenario, tmp_path):
        out1, out2 = tmp_path / "b1", tmp_path / "b2"
        for out in (out1, out2):
            assert (
                main(["baseline", "--scenario", str(scenario), "--out", str(out)]) == 0
            )
        assert read_all(out1) == read_all(out2)
        summary = json.loads((out1 / "baseline_summary.json").read_text())
        assert summary["lambda"] == 0


def reference_job_rows(res):
    """The per-job CSV rows as one f-string per row (the writer before it
    built each column in one pass)."""
    server_set_of = {
        tid: "|".join(str(s) for s in srvs) for tid, srvs in res.task_servers
    }
    return "".join(
        f"{t},{j},{server_set_of.get(t, '')},{s!r},{c!r},{o!r},{int(miss)},{int(ab)}\n"
        for t, j, s, c, o, miss, ab in zip(
            res.task_id, res.job_index, res.start_s, res.completion_s, res.overrun_s,
            res.missed, res.aborted,
        )
    )


class TestJobsCsvWriter:
    FLOATS = [-0.0, 0.0, 5e-324, 1e-05, 0.1, 1e16, 123456.789, float("inf"), float("-inf")]

    def result(self, n, rng):
        """``n`` jobs of tasks 0-4; task 3 on no server, task 4 on three."""
        floats = [tuple(rng.choice(self.FLOATS, size=n).tolist()) for _ in range(3)]
        flags = [tuple(rng.integers(2, size=n).astype(bool).tolist()) for _ in range(2)]
        return sim.EvaluationResult(
            lam=0, energy_j=1.0, energy_units=1.0,
            task_id=tuple(rng.integers(5, size=n).tolist()),
            job_index=tuple(range(n)),
            start_s=floats[0], completion_s=floats[1], overrun_s=floats[2],
            missed=flags[0], aborted=flags[1],
            per_server=(), constraint_report=(),
            hard_misses=0, control_aborts=0, soft_violations=0,
            task_servers=((0, (0,)), (1, (1,)), (2, (0, 1)), (4, (0, 2, 5))),
        )

    BLOCK = cli._ROWS_PER_WRITE

    @pytest.mark.parametrize("n", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 1000])
    def test_rows_equal_the_per_row_reference(self, tmp_path, n):
        scn = load_scenario(str(FIXTURES / "scenario_amd.json"), seed=1)
        res = self.result(n, np.random.default_rng(n))
        cli._write_evaluation(tmp_path, scn, res, "simulate")
        text = (tmp_path / "simulate_jobs.csv").read_text()
        head = (f"# scenario_digest={scn.digest} seed=1\n"
                "task_id,job_index,server_set,start_s,completion_s,overrun_s,missed,aborted\n")
        assert text == head + reference_job_rows(res)
        if n == 1000:
            for value in ("-0.0", "5e-324", "1e-05", "1e+16", "inf", "-inf"):
                assert f",{value}," in text
            assert ",0|2|5," in text and ",0|1," in text
            assert re.search(r"^3,\d+,,", text, re.MULTILINE)  # a task on no server
            assert {line[-3:] for line in text.splitlines()[2:]} == {"0,0", "0,1", "1,0", "1,1"}


class TestParserReuse:
    def test_reused_parser_leaks_no_state(self, scenario, tmp_path):
        alloc = tmp_path / "alloc.json"
        alloc.write_text(
            json.dumps({"dvfs": [6, 6], "shares": [[100, 0], [0, 100], [50, 50]]})
        )
        calls = [
            ["baseline", "--scenario", str(scenario), "--seed", "7"],
            ["simulate", "--scenario", str(scenario), "--allocation", str(alloc)],
            ["baseline", "--scenario", str(scenario)],
        ]
        outputs = []
        for n, argv in enumerate(calls):
            reused, fresh = tmp_path / f"reused{n}", tmp_path / f"fresh{n}"
            assert main(argv + ["--out", str(reused)]) == 0
            args = build_parser().parse_args(argv + ["--out", str(fresh)])
            assert args.func(args) == 0
            outputs.append(read_all(reused))
            assert outputs[-1] == read_all(fresh)
        assert outputs[0] != outputs[2]  # the seed reaches the output
        assert build_parser() is not build_parser()

    def test_main_builds_its_parser_once(self, scenario, tmp_path, monkeypatch):
        built, real_build = [], cli.build_parser

        def counting_build():
            built.append(real_build())
            return built[-1]

        monkeypatch.setattr(cli, "build_parser", counting_build)
        cli._parser.cache_clear()
        try:
            for n in range(3):
                main(["generate", "--scenario", str(scenario), "--out", str(tmp_path / f"g{n}")])
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1


class TestFit:
    def make_telemetry(self, tmp_path, corrupt=False):
        spec = load_server_spec(str(FIXTURES / "intel_xeon_e5620.json"))
        rng = np.random.default_rng(0)
        rows = ["utilization,t_cpu_k,t_mem_k,mode_index,power_w"]
        if corrupt:
            rows = ["utilization,t_cpu_k,mode_index,power_w"]
        for _ in range(60):
            u = float(rng.uniform(0, 1))
            tc = float(rng.uniform(295, 320))
            tm = float(rng.uniform(295, 320))
            ix = int(rng.integers(1, 7))
            p = total_power(spec, spec.mode(ix), ThermalState((tc,), tm), u)
            if corrupt:
                rows.append(f"{u},{tc},{ix},{p}")
            else:
                rows.append(f"{u},{tc},{tm},{ix},{p}")
        path = tmp_path / "telemetry.csv"
        path.write_text("\n".join(rows) + "\n")
        return path

    def test_fit_recovers_model(self, tmp_path):
        telemetry = self.make_telemetry(tmp_path)
        out = tmp_path / "fit"
        rc = main(
            [
                "fit",
                "--telemetry", str(telemetry),
                "--server", str(FIXTURES / "intel_xeon_e5620.json"),
                "--out", str(out),
            ]
        )
        assert rc == 0
        report = json.loads((out / "fit_report.json").read_text())
        assert report["validation_mape_pct"] < 1e-6
        fitted = load_server_spec(out / "fitted_server.json")
        truth = load_server_spec(str(FIXTURES / "intel_xeon_e5620.json"))
        assert fitted.a_dyn == pytest.approx(truth.a_dyn, rel=1e-6)

    def test_missing_column_is_parse_error(self, tmp_path):
        telemetry = self.make_telemetry(tmp_path, corrupt=True)
        rc = main(
            [
                "fit",
                "--telemetry", str(telemetry),
                "--server", str(FIXTURES / "intel_xeon_e5620.json"),
                "--out", str(tmp_path / "fit"),
            ]
        )
        assert rc == 2

    def test_bad_row_names_the_file_and_row(self, tmp_path, capsys):
        telemetry = tmp_path / "telemetry.csv"
        telemetry.write_text(
            "utilization,t_cpu_k,t_mem_k,mode_index,power_w\n"
            "0.5,300.0,300.0,1,40.0\n"
            "0.5,hot,300.0,1,40.0\n"
        )
        rc = main(
            [
                "fit",
                "--telemetry", str(telemetry),
                "--server", str(FIXTURES / "intel_xeon_e5620.json"),
                "--out", str(tmp_path / "fit"),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{telemetry}: row 3:" in err

    def test_too_few_samples_names_the_telemetry_file(self, tmp_path, capsys):
        telemetry = tmp_path / "telemetry.csv"
        telemetry.write_text(
            "utilization,t_cpu_k,t_mem_k,mode_index,power_w\n"
            "0.5,300.0,300.0,1,40.0\n"
            "0.6,310.0,305.0,2,45.0\n"
        )
        rc = main(
            [
                "fit",
                "--telemetry", str(telemetry),
                "--server", str(FIXTURES / "intel_xeon_e5620.json"),
                "--out", str(tmp_path / "fit"),
            ]
        )
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: {telemetry}: need at least 14 samples to fit 7 coefficients, got 2\n"
        )
        assert not (tmp_path / "fit").exists()

    @pytest.mark.parametrize("split", ["1.5", "0", "1", "-0.2", "nan"])
    def test_split_out_of_range_is_config_error(self, tmp_path, capsys, split):
        telemetry = self.make_telemetry(tmp_path)
        rc = main(
            [
                "fit",
                "--telemetry", str(telemetry),
                "--server", str(FIXTURES / "intel_xeon_e5620.json"),
                "--split", split,
                "--out", str(tmp_path / "fit"),
            ]
        )
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: --split must be in (0, 1), got {float(split)}\n"
        )
        assert not (tmp_path / "fit").exists()

    @pytest.mark.parametrize(
        "row,message",
        [
            ("0.5,300.0,300.0,1", "row 3: expected 5 fields, got 4"),
            ("# second run\n0.5,hot,300.0,1,40.0", "row 4: t_cpu_k: could not convert"),
            ("0.5,300.0,300.0,7,40.0", "row 3: mode index 7 out of range 1..6"),
        ],
        ids=["short-row", "after-comment", "unknown-mode"],
    )
    def test_bad_row_is_named_by_its_line(self, tmp_path, capsys, row, message):
        telemetry = tmp_path / "telemetry.csv"
        telemetry.write_text(
            "utilization,t_cpu_k,t_mem_k,mode_index,power_w\n"
            f"0.5,300.0,300.0,1,40.0\n{row}\n"
        )
        rc = main(
            [
                "fit",
                "--telemetry", str(telemetry),
                "--server", str(FIXTURES / "intel_xeon_e5620.json"),
                "--out", str(tmp_path / "fit"),
            ]
        )
        assert rc == 2
        assert f"{telemetry}: {message}" in capsys.readouterr().err


class TestErrors:
    @pytest.mark.parametrize("name", ["scenario.json", "intel_xeon_e5620.json", "alloc.json"])
    def test_json_syntax_error_names_file_line_and_column(self, scenario, capsys, tmp_path, name):
        alloc = tmp_path / "alloc.json"
        alloc.write_text(json.dumps({"dvfs": [6, 6], "shares": [[100, 0], [0, 100], [50, 50]]}))
        broken = tmp_path / name  # a server file here resolves before the bundled one
        broken.write_text('{\n  "cpi": 1.0,\n  }\n')
        rc = main(["simulate", "--scenario", str(scenario), "--allocation", str(alloc),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{broken}: Expecting property name enclosed in double quotes: line 3 column 3" \
            in err

    @pytest.mark.parametrize("name", ["scenario.json", "workload.csv"])
    def test_non_utf8_file_is_parse_error(self, scenario, capsys, tmp_path, name):
        bad = tmp_path / name
        bad.write_bytes(b"\xff" + bad.read_bytes())
        rc = main(["baseline", "--scenario", str(scenario), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert f"{bad}: 'utf-8' codec can't decode byte 0xff" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "lines,message",
        [
            ([WORKLOAD_HEADER], "row 1: the header is followed by no data rows"),
            ([WORKLOAD_HEADER, "# one task", "0,REAL,many,1.0,1.0,6"],
             "row 3: n_ins: invalid literal"),
            (["# no header", "# and no tasks"],
             f"expected a header row {WORKLOAD_HEADER}, found none"),
        ],
        ids=["no-tasks", "after-comment", "only-comments"],
    )
    def test_bad_workload_names_file_and_line(self, scenario, capsys, tmp_path, lines, message):
        workload = tmp_path / "workload.csv"
        workload.write_text("\n".join(lines) + "\n")
        rc = main(["baseline", "--scenario", str(scenario), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert f"{workload}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["generate", "baseline"])
    @pytest.mark.parametrize("row, field, value", [
        ("2,SOFT,100000000,nan,0.8,6", "period_s", "nan"),
        ("2,SOFT,100000000,inf,0.8,6", "period_s", "inf"),
        ("2,SOFT,100000000,1.0,nan,6", "deadline_s", "nan"),
    ], ids=["nan-period", "inf-period", "nan-deadline"])
    def test_non_finite_workload_time_names_file_row_and_field(
            self, scenario, capsys, tmp_path, command, row, field, value):
        # Each read as "job row 246: arrival_s must be finite" (exit 4) before.
        workload = tmp_path / "workload.csv"
        workload.write_text(SMALL_WORKLOAD.replace("2,SOFT,100000000,1.0,0.8,6", row))
        rc = main([command, "--scenario", str(scenario), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert (f"{workload}: row 4: task 2: {field} must be a finite number > 0, got {value}"
                in capsys.readouterr().err)

    def test_missing_scenario_is_config_error(self, tmp_path):
        rc = main(
            ["generate", "--scenario", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]
        )
        assert rc == 2

    def test_seed_required(self, tmp_path):
        (tmp_path / "workload.csv").write_text(SMALL_WORKLOAD)
        doc = {
            "cluster": [{"server": "intel_xeon_e5620.json", "count": 1}],
            "workload": "workload.csv",
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        rc = main(["generate", "--scenario", str(path), "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_misspelt_dyn_energy_form_is_config_error(self, scenario, capsys, tmp_path):
        doc = json.loads(scenario.read_text())
        doc["dyn_energy_form"] = "as-writen"
        scenario.write_text(json.dumps(doc))
        rc = main(["baseline", "--scenario", str(scenario), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(scenario) in err and "dyn_energy_form 'as-writen'" in err

    @pytest.mark.parametrize(
        "keys,value,field",
        [
            (("optimizer", "population"), "many", "optimizer.population"),
            (("soft_constraints", "x"), [[0.0, 0.2]], "soft_constraints['x']"),
            (("cluster", 0), {"count": 1}, "cluster[0].server"),
            (("cluster", 0, "server"), "nope.json",
             "cluster[0].server: cannot resolve referenced file 'nope.json'"),
            (("optimizer", "policy"), 5, "optimizer.policy"),
            (("phase_policy",), "staggered", "phase_policy: 'staggered' is not one of"),
            (("thermal",), 301.0, "thermal: expected a JSON object"),
            (("optimizer",), [12, 30], "optimizer: expected a JSON object"),
            (("soft_constraints",), [1], "soft_constraints: expected a JSON object"),
            (("optimizer", "max_mode_index"), "x", "optimizer.max_mode_index"),
            (("optimizer", "max_mode_index"), 0, "max_mode_index must be >= 1"),
            (("cluster",), 5, "cluster: expected a list"),
            (("workload",), 5, "workload: expected a string"),
            (
                ("cluster",),
                [{"server": "amd_opteron_270.json", "thermal": {"t_cpu_k": {"a": 1}}}],
                "cluster[0].thermal.t_cpu_k: expected a number",
            ),
            (
                ("cluster",),
                [{"server": "amd_opteron_270.json", "thermal": {"t_cpu_k": [301.0] * 3}}],
                "cluster[0].thermal.t_cpu_k: has 3 CPU temperatures, server has 2 sockets",
            ),
            (("cluster", 0, "count"), 1.9, "cluster[0].count: expected an integer, got 1.9"),
            (("cluster", 0, "count"), "2", 'cluster[0].count: expected an integer, got "2"'),
            (("cluster", 0, "count"), 0, "cluster[0].count: must be >= 1"),
            (("cluster", 0, "count"), -1, "cluster[0].count: must be >= 1"),
            (("optimizer", "population"), 12.7, "optimizer.population: expected an integer"),
            (("optimizer", "seed"), 1.5, "optimizer.seed: expected an integer"),
            (("optimizer", "seed"), -1, "seed must be >= 0, got -1"),
            (("optimizer", "generations"), True, "optimizer.generations: expected an integer"),
            (("optimizer", "share_step"), 0, "share_step must be in 1..100"),
            (("optimizer", "share_step"), -5, "share_step must be in 1..100"),
            (("optimizer", "stop_window"), 0, "optimizer.stop_window: must be >= 1, got 0"),
            (("optimizer", "stop_window"), -5, "optimizer.stop_window: must be >= 1, got -5"),
            (("energy_unit_j",), 0, "energy_unit_j must be > 0"),
            (("energy_unit_j",), -1, "energy_unit_j must be > 0"),
            (("soft_constraints", "50"), [[0.0, 0.2]],
             "soft_constraints['50']: task 50 is not in the workload"),
            (("soft_constraints", "0"), [[0.0, 0.2]],
             "soft_constraints['0']: task 0 is REAL, not SOFT, in the workload"),
            (("soft_constraints", "1"), [[0.0, 0.2]],
             "soft_constraints['1']: task 1 is CTRL, not SOFT, in the workload"),
            (("soft_constraints", "2"), [],
             "soft_constraints['2']: expected at least one [x, beta] pair"),
        ],
        ids=[
            "non-numeric-population",
            "non-integer-task-id",
            "cluster-entry-without-server",
            "unresolvable-server",
            "non-string-policy",
            "unknown-phase-policy",
            "non-object-thermal",
            "non-object-optimizer",
            "list-soft-constraints",
            "string-max-mode-index",
            "zero-max-mode-index",
            "non-list-cluster",
            "non-string-workload",
            "non-list-t-cpu-on-two-sockets",
            "three-t-cpu-on-two-sockets",
            "fractional-count",
            "string-count",
            "zero-count",
            "negative-count",
            "fractional-population",
            "fractional-seed",
            "negative-seed",
            "bool-generations",
            "zero-share-step",
            "negative-share-step",
            "zero-stop-window",
            "negative-stop-window",
            "zero-energy-unit",
            "negative-energy-unit",
            "soft-constraint-of-unknown-task",
            "soft-constraint-of-real-task",
            "soft-constraint-of-ctrl-task",
            "empty-soft-constraint-list",
        ],
    )
    def test_bad_scenario_value_is_config_error(
        self, scenario, capsys, tmp_path, keys, value, field
    ):
        doc = json.loads(scenario.read_text())
        *parents, last = keys
        target = doc
        for key in parents:
            target = target[key]
        target[last] = value
        scenario.write_text(json.dumps(doc))
        rc = main(["baseline", "--scenario", str(scenario), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(scenario) in err and field in err

    @pytest.mark.parametrize("command", ["generate", "baseline", "optimize"])
    def test_negative_seed_flag_is_config_error(self, scenario, capsys, tmp_path, command):
        rc = main([command, "--scenario", str(scenario), "--seed", "-1",
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert f"{scenario}: seed must be >= 0, got -1" in capsys.readouterr().err

    def test_top_level_list_is_config_error(self, scenario, capsys, tmp_path):
        scenario.write_text(json.dumps([json.loads(scenario.read_text())]))
        rc = main(["baseline", "--scenario", str(scenario), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert f"{scenario}: top level: expected a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key,value,message",
        [
            ("a_dyn", "x", 'a_dyn: expected a number, got "x"'),
            ("b_cpu", ["x"], 'b_cpu[0]: expected a number, got "x"'),
            ("modes", [[1, "fast", 0.85]], 'modes[0][1]: expected a number, got "fast"'),
            ("modes", None, "modes: required field is missing"),
            ("a_dyn", None, "a_dyn: required field is missing"),
            ("n_sockets", 2.7, "n_sockets: expected an integer, got 2.7"),
            ("b_cpu", "12", 'b_cpu: expected a list, got "12"'),
            ("label", 5, "label: expected a string, got 5"),
            ("modes", [], "invalid server spec: server needs at least one DVFS mode"),
            ("modes", [[1, 1.73e9, 0.95], [2, 1.86e9, 0.85]],
             "invalid server spec: mode voltages must be non-decreasing"),
        ],
        ids=[
            "string-a-dyn", "string-b-cpu", "string-frequency", "no-modes", "no-a-dyn",
            "fractional-n-sockets", "string-b-cpu-list", "number-label", "empty-modes",
            "decreasing-voltages",
        ],
    )
    def test_bad_server_field_is_named(self, scenario, capsys, tmp_path, key, value, message):
        server = tmp_path / "intel_xeon_e5620.json"  # resolved before the bundled file
        doc = json.loads((FIXTURES / "intel_xeon_e5620.json").read_text())
        if value is None:
            del doc[key]
        else:
            doc[key] = value
        server.write_text(json.dumps(doc))
        rc = main(["baseline", "--scenario", str(scenario), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert f"{server}: {message}" in capsys.readouterr().err


class TestScenarioOverrides:
    def test_explicit_overrides_win(self, scenario):
        s = load_scenario(scenario, generations=1, population=2)
        assert (s.optimizer.generations, s.optimizer.population) == (1, 2)

    @pytest.mark.parametrize(
        "override", [{"generations": 0}, {"population": 0}], ids=["generations", "population"]
    )
    def test_zero_override_is_rejected_not_replaced(self, scenario, override):
        name = next(iter(override))
        with pytest.raises(ConfigurationError, match=re.escape(f"{scenario}: {name}")):
            load_scenario(scenario, **override)
