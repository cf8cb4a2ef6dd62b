"""Workload parsing, job generation and trace round-trips."""

import io
import math
import re

import numpy as np
import pytest

from greensched.errors import InvalidArgumentError, InvalidTraceError, ParseError
from greensched.scenario import FIXTURES
from greensched.workload import (
    PHASE_POLICIES,
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


def scalar_draw_rows(profiles, seed, phase_policy):
    """The trace ``generate_jobs`` must give, drawn one job at a time: each
    task's phase, then per SOFT job its gap and then its work, as scalars."""
    rng = np.random.Generator(np.random.PCG64(seed))
    rows = []
    for p in sorted(profiles, key=lambda q: q.task_id):
        phase = 0.0 if phase_policy == "zero" else float(rng.uniform(0.0, p.period_s))
        arrival = phase
        for j in range(p.n_jobs):
            if p.kind == "SOFT":
                arrival += float(rng.exponential(p.period_s))
                work = max(1, math.ceil(rng.exponential(p.n_instructions)))
            else:
                arrival, work = phase + j * p.period_s, p.n_instructions
            rows.append((p.task_id, j, arrival, arrival + p.deadline_s, work))
    return rows


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

    def test_task_id_past_int64_rejected(self, tmp_path):
        f = tmp_path / "w.csv"
        f.write_text(f"task_id,type,n_ins,period_s,deadline_s,n_jobs\n{2**63},REAL,1000,1.0,1.0,5\n")
        with pytest.raises(ParseError, match="row 2: task_id: .* does not fit in 64 bits"):
            parse_workload(f)

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

    @pytest.mark.parametrize("args, message", [
        ((0, "SOFT", float("nan"), 1.0, 1.0, 1), "task 0: n_instructions must be an int > 0, got nan"),
        ((0, "SOFT", "10", 1.0, 1.0, 1), "task 0: n_instructions must be an int > 0, got '10'"),
        ((0, "SOFT", 10.0, 1.0, 1.0, 1), "task 0: n_instructions must be an int > 0, got 10.0"),
        ((0, "SOFT", 10, float("nan"), 1.0, 1), "task 0: period_s must be a finite number > 0, got nan"),
        ((0, "SOFT", 10, float("inf"), 1.0, 1), "task 0: period_s must be a finite number > 0, got inf"),
        ((0, "SOFT", 10, 1.0, float("-inf"), 1),
         "task 0: deadline_s must be a finite number > 0, got -inf"),
        ((0, "SOFT", 10, 1.0, "1", 1), "task 0: deadline_s must be a finite number > 0, got '1'"),
        ((0, "SOFT", 10, 1.0, 1.0, 1.0), "task 0: n_jobs must be an int > 0, got 1.0"),
        ((0, "SOFT", 10, 1.0, 1.0, True), "task 0: n_jobs must be an int > 0, got True"),
        ((True, "SOFT", 10, 1.0, 1.0, 1), "task_id must be an int, got True"),
        ((0.0, "SOFT", 10, 1.0, 1.0, 1), "task_id must be an int, got 0.0"),
        # skip=0 built and then raised a raw ZeroDivisionError in evaluation.
        ((0, "CTRL", 10**8, 1.0, 1.0, 1, 0), "task 0: skip must be None or an int >= 1, got 0"),
        ((0, "CTRL", 10**8, 1.0, 1.0, 1, 1.5), "task 0: skip must be None or an int >= 1, got 1.5"),
        ((0, "CTRL", 10**8, 1.0, 1.0, 1, True),
         "task 0: skip must be None or an int >= 1, got True"),
    ])
    def test_ids_and_counts_are_ints_and_times_finite_numbers(self, args, message):
        # NaN and inf times, float counts and string fields built, or escaped
        # as a raw TypeError, before.
        with pytest.raises(InvalidArgumentError, match=f"^{re.escape(message)}$"):
            TaskProfile(*args)


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
        assert trace.arrival_s.tolist() == pytest.approx([0.0, 2.5, 5.0, 7.5])
        assert trace.deadline_s == pytest.approx(trace.arrival_s + 2.5)
        assert (trace.work_instructions == 100).all()

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

    @pytest.mark.parametrize("seed", [1.5, "1", True])
    def test_non_int_seed_rejected(self, seed):
        # 1.5 and "1" raised a raw TypeError; True was taken as seed 1.
        with pytest.raises(InvalidArgumentError, match=f"^seed must be an int, got {seed!r}$"):
            generate_jobs(parse_workload(WORKLOAD_CSV), seed=seed)

    def test_soft_interarrival_mean_matches_period(self):
        # law of large numbers: mean inter-arrival within 2% at 20k jobs
        profiles = [TaskProfile(0, "SOFT", 1000, 3.0, 2.0, 20_000)]
        trace = generate_jobs(profiles, seed=11)
        gaps = np.diff(trace.arrival_s)
        assert np.mean(gaps) == pytest.approx(3.0, rel=0.02)

    def test_soft_work_mean_matches_profile(self):
        profiles = [TaskProfile(0, "SOFT", 10_000, 1.0, 1.0, 20_000)]
        trace = generate_jobs(profiles, seed=13)
        works = trace.work_instructions
        assert np.mean(works) == pytest.approx(10_000, rel=0.02)
        assert works.min() >= 1

    def test_uniform_random_phases_stay_in_period(self):
        profiles = [TaskProfile(0, "REAL", 100, 5.0, 5.0, 3)]
        trace = generate_jobs(profiles, seed=2, phase_policy="uniform-random")
        first = trace.arrival_s[0]
        assert 0.0 <= first < 5.0

    @pytest.mark.parametrize("phase_policy", PHASE_POLICIES)
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_block_draws_equal_scalar_draws(self, phase_policy, seed):
        # A 20 000-job SOFT task after the bundled mix: every column bit for bit.
        profiles = parse_workload(WORKLOAD_CSV) + [TaskProfile(99, "SOFT", 10**8, 0.2, 0.5, 20_000)]
        trace = generate_jobs(profiles, seed, phase_policy)
        rows = list(zip(*(column.tolist() for column in trace.columns)))
        assert rows == scalar_draw_rows(profiles, seed, phase_policy)

    def test_unknown_policies_rejected(self):
        profiles = [TaskProfile(0, "REAL", 100, 5.0, 5.0, 3)]
        with pytest.raises(InvalidArgumentError):
            generate_jobs(profiles, seed=1, phase_policy="nope")


class TestJobTraceCheck:
    ROWS = [Job(0, 0, 0.0, 1.0, 5), Job(0, 1, 1.0, 2.0, 5), Job(1, 0, 0.5, 2.0, 7)]

    def test_rows_in_any_order_give_one_trace(self):
        trace = JobTrace.from_jobs(self.ROWS, 0, 3.0)
        assert JobTrace.from_jobs(self.ROWS[::-1], 0, 3.0) == trace
        assert trace.task_id.tolist() == [0, 0, 1] and trace.job_index.tolist() == [0, 1, 0]
        assert trace.arrival_s.dtype == float and trace.work_instructions.dtype == np.int64
        with pytest.raises(ValueError):
            trace.arrival_s[0] = 1.0  # columns are read-only

    @pytest.mark.parametrize(
        "bad,message",
        [
            (Job(0, 2, 0.0, 1.0, 2.5), "task_id, job_index and work_instructions must be integers"),
            (Job(0, -1, 0.0, 1.0, 5), "job_index must be >= 0, got -1"),
            (Job(1, 0, 0.5, 2.0, 7), "job 0 of task 1 is listed twice"),
            (Job(0, 1, 9.0, 9.0, 5), "job 1 of task 0 is listed twice"),
            (Job(0, 2, 0.0, 1.0, -5), "work_instructions must be >= 0, got -5"),
            (Job(0, 2, float("nan"), 1.0, 5), "arrival_s must be finite, got nan"),
            (Job(0, 2, 0.0, float("inf"), 5), "deadline_s must be finite, got inf"),
            (Job(0, 2, 1.0, 0.5, 5), "deadline_s 0.5 is before arrival_s 1.0"),
        ],
    )
    def test_bad_row_is_named(self, bad, message):
        with pytest.raises(InvalidTraceError, match=f"^job row 3: {re.escape(message)}$") as e:
            JobTrace.from_jobs(self.ROWS + [bad], 0, 3.0)
        assert (e.value.row, e.value.problem) == (3, message)

    def test_first_of_two_bad_rows_is_named_in_the_order_given(self):
        rows = [Job(1, 0, 0.5, 2.0, 7), Job(0, 1, 1.0, 2.0, -1), Job(0, 1, 1.0, 2.0, 5),
                Job(0, 0, 0.0, 1.0, 5)]
        with pytest.raises(InvalidTraceError, match="^job row 1: work_instructions"):
            JobTrace.from_jobs(rows, 0, 3.0)
        rows[1], rows[3] = rows[2], Job(0, 0, 0.0, 1.0, -1)
        with pytest.raises(InvalidTraceError, match="^job row 2: job 1 of task 0 is listed twice"):
            JobTrace.from_jobs(rows, 0, 3.0)

    def test_columns_of_unequal_length_are_rejected(self):
        with pytest.raises(InvalidArgumentError, match="differ in length"):
            JobTrace([0, 0], [0, 1], [0.0], [1.0], [5], 0, 1.0)


class TestTraceRoundTrip:
    def test_serialize_parse_identity(self, tmp_path):
        profiles = parse_workload(WORKLOAD_CSV)
        trace = generate_jobs(profiles, seed=5)
        path = tmp_path / "trace.csv"
        serialize_trace(trace, path)
        back = parse_trace(path)
        assert back == trace

    def test_rows_out_of_order_are_sorted_and_named_by_line(self, tmp_path):
        path = tmp_path / "trace.csv"
        header = "# seed=1 horizon_s=10.0\ntask_id,job_index,arrival_s,deadline_s,work_instructions\n"
        path.write_text(header + "1,0,0.5,2.0,7\n0,1,1.0,2.0,5\n0,0,0.0,1.0,5\n")
        assert parse_trace(path) == JobTrace.from_jobs(TestJobTraceCheck.ROWS, 1, 10.0)
        path.write_text(header + "1,0,0.5,2.0,7\n0,1,1.0,2.0,5\n0,1,0.0,1.0,5\n0,0,0.0,1.0,-5\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: row 5: job 1 of task 0"):
            parse_trace(path)

    def test_value_past_int64_is_a_parse_error(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("# seed=1 horizon_s=10.0\n"
                        "task_id,job_index,arrival_s,deadline_s,work_instructions\n"
                        f"0,0,0.0,1.0,{2**63}\n")
        with pytest.raises(ParseError, match="row 3: work_instructions: .* does not fit in 64 bits"):
            parse_trace(path)

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
