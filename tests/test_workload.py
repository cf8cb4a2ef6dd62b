"""Workload parsing, job generation and trace round-trips."""

import io
import math
import re

import numpy as np
import pytest

from greensched.errors import InvalidArgumentError, ParseError
from greensched.scenario import FIXTURES
from greensched.workload import (
    Job,
    JobTrace,
    TaskProfile,
    generate_jobs,
    hyperperiod_horizon,
    parse_trace,
    parse_workload,
    serialize_trace,
)

WORKLOAD_CSV = str(FIXTURES / "mixed_workload.csv")


class TestParseWorkload:
    def test_bundled_workload_shape(self):
        profiles = parse_workload(WORKLOAD_CSV)
        assert len(profiles) == 9
        assert [p.task_id for p in profiles] == list(range(9))
        kinds = [p.kind for p in profiles]
        assert kinds.count("REAL") >= 1
        assert kinds.count("CTRL") >= 1
        assert kinds.count("SOFT") >= 1

    def test_bad_header_rejected(self, tmp_path):
        f = tmp_path / "w.csv"
        f.write_text("task_id,type,n_ins\n1,REAL,100\n")
        with pytest.raises(ParseError) as e:
            parse_workload(f)
        assert e.value.row == 1

    def test_bad_row_reports_row_number(self, tmp_path):
        f = tmp_path / "w.csv"
        f.write_text(
            "task_id,type,n_ins,period_s,deadline_s,n_jobs\n"
            "0,REAL,1000,1.0,1.0,5\n"
            "1,BOGUS,1000,1.0,1.0,5\n"
        )
        with pytest.raises(ParseError) as e:
            parse_workload(f)
        assert e.value.row == 3

    def test_duplicate_task_id_rejected(self, tmp_path):
        f = tmp_path / "w.csv"
        f.write_text(
            "task_id,type,n_ins,period_s,deadline_s,n_jobs\n"
            "0,REAL,1000,1.0,1.0,5\n"
            "0,SOFT,1000,1.0,1.0,5\n"
        )
        with pytest.raises(ParseError) as e:
            parse_workload(f)
        assert "duplicate" in str(e.value)

    def test_comment_lines_skipped(self, tmp_path):
        f = tmp_path / "w.csv"
        f.write_text(
            "# generated for a smoke test\n"
            "task_id,type,n_ins,period_s,deadline_s,n_jobs\n"
            "0,REAL,1000,1.0,1.0,5\n"
        )
        assert len(parse_workload(f)) == 1


class TestTaskProfile:
    def test_field_validation(self):
        with pytest.raises(InvalidArgumentError):
            TaskProfile(0, "REAL", 0, 1.0, 1.0, 5)
        with pytest.raises(InvalidArgumentError):
            TaskProfile(0, "REAL", 100, -1.0, 1.0, 5)
        with pytest.raises(InvalidArgumentError):
            TaskProfile(0, "NOPE", 100, 1.0, 1.0, 5)


class TestHyperperiodHorizon:
    def test_max_over_tasks(self):
        profiles = [
            TaskProfile(0, "REAL", 100, 2.0, 1.5, 10),  # 0 + 20 + 1.5 = 21.5
            TaskProfile(1, "REAL", 100, 3.0, 3.0, 5),  # 15 + 3 = 18
        ]
        assert hyperperiod_horizon(profiles) == pytest.approx(21.5)

    def test_phases_shift_horizon(self):
        profiles = [TaskProfile(0, "REAL", 100, 2.0, 1.5, 10)]
        assert hyperperiod_horizon(profiles, {0: 5.0}) == pytest.approx(26.5)


class TestGenerateJobs:
    def test_periodic_tasks_are_strictly_periodic(self):
        profiles = [TaskProfile(0, "CTRL", 100, 2.5, 2.5, 4)]
        trace = generate_jobs(profiles, seed=7)
        arrivals = [j.arrival_s for j in trace.jobs]
        assert arrivals == pytest.approx([0.0, 2.5, 5.0, 7.5])
        assert all(j.deadline_s == pytest.approx(j.arrival_s + 2.5) for j in trace.jobs)
        assert all(j.work_instructions == 100 for j in trace.jobs)

    def test_deterministic_given_seed(self):
        profiles = parse_workload(WORKLOAD_CSV)
        t1 = generate_jobs(profiles, seed=3)
        t2 = generate_jobs(profiles, seed=3)
        assert t1 == t2
        t3 = generate_jobs(profiles, seed=4)
        assert t1 != t3

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidArgumentError, match="seed must be >= 0, got -1"):
            generate_jobs(parse_workload(WORKLOAD_CSV), seed=-1)

    def test_soft_interarrival_mean_matches_period(self):
        # law of large numbers: mean inter-arrival within 2% at 20k jobs
        profiles = [TaskProfile(0, "SOFT", 1000, 3.0, 2.0, 20_000)]
        trace = generate_jobs(profiles, seed=11)
        arrivals = np.array([j.arrival_s for j in trace.jobs])
        gaps = np.diff(arrivals)
        assert np.mean(gaps) == pytest.approx(3.0, rel=0.02)

    def test_soft_work_mean_matches_profile(self):
        profiles = [TaskProfile(0, "SOFT", 10_000, 1.0, 1.0, 20_000)]
        trace = generate_jobs(profiles, seed=13)
        works = np.array([j.work_instructions for j in trace.jobs])
        assert np.mean(works) == pytest.approx(10_000, rel=0.02)
        assert works.min() >= 1

    def test_uniform_random_phases_stay_in_period(self):
        profiles = [TaskProfile(0, "REAL", 100, 5.0, 5.0, 3)]
        trace = generate_jobs(profiles, seed=2, phase_policy="uniform-random")
        first = trace.jobs[0].arrival_s
        assert 0.0 <= first < 5.0

    def test_unknown_policies_rejected(self):
        profiles = [TaskProfile(0, "REAL", 100, 5.0, 5.0, 3)]
        with pytest.raises(InvalidArgumentError):
            generate_jobs(profiles, seed=1, phase_policy="nope")


class TestTraceRoundTrip:
    def test_serialize_parse_identity(self, tmp_path):
        profiles = parse_workload(WORKLOAD_CSV)
        trace = generate_jobs(profiles, seed=5)
        path = tmp_path / "trace.csv"
        serialize_trace(trace, path)
        back = parse_trace(path)
        assert back == trace

    def test_header_carries_seed_and_generator(self, tmp_path):
        profiles = [TaskProfile(0, "REAL", 100, 1.0, 1.0, 2)]
        trace = generate_jobs(profiles, seed=42)
        path = tmp_path / "trace.csv"
        serialize_trace(trace, path)
        head = path.read_text().splitlines()[0]
        assert head.startswith("#")
        assert "seed=42" in head
        assert "generator=numpy-PCG64" in head

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("task_id,job_index,arrival_s,deadline_s,work_instructions\n")
        with pytest.raises(ParseError):
            parse_trace(path)

    @pytest.mark.parametrize(
        "header,row,bad_row",
        [
            ("# seed=1 horizon_s=10.0", "x,0,0.0,1.0,5", 3),
            ("# seed=one horizon_s=10.0", "0,0,0.0,1.0,5", 1),
            ("# seed=1 horizon_s=long", "0,0,0.0,1.0,5", 1),
        ],
        ids=["row", "seed", "horizon"],
    )
    def test_non_numeric_value_reports_row_number(self, tmp_path, header, row, bad_row):
        path = tmp_path / "trace.csv"
        path.write_text(
            f"{header}\ntask_id,job_index,arrival_s,deadline_s,work_instructions\n{row}\n"
        )
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: row {bad_row}: "):
            parse_trace(path)
