"""Power and energy model tests against independently derived values."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greensched.errors import (
    InfeasibleTermError,
    InvalidArgumentError,
    ModelDomainError,
)
from greensched.power import (
    FREQ_NORM_HZ,
    DvfsMode,
    ServerSpec,
    ThermalState,
    dynamic_energy,
    dynamic_power,
    leakage_energy,
    leakage_power,
    total_power,
)

from conftest import make_spec


def leakage_oracle(spec: ServerSpec, v: float, t_cpu, t_mem: float) -> float:
    """Direct summation of the leakage polynomial, independent of the library."""
    total = spec.d_volt * v**3 + spec.e_const
    for s in range(spec.n_sockets):
        total += spec.b_cpu[s] * t_cpu[s] ** 2 * v
        total += spec.c_cpu[s] * t_cpu[s] * v**2
        total += spec.g_mem[s] * t_mem**2
        total += spec.h_mem[s] * t_mem
    return total


class TestLeakagePower:
    def test_frozen_value_single_socket(self, spec, thermal):
        # mpmath (50 digits) on the polynomial at T=301 K, V=1.35
        assert leakage_power(spec, spec.mode(6), thermal) == pytest.approx(
            118.691906775, rel=1e-12
        )

    def test_published_intel_constants_evaluate_as_written(self):
        # Constants from a published calibration table; at 300 K the dominant
        # G*T_mem^2 term yields ~2.48e7 in the table's (unstated) power unit.
        spec = make_spec(
            a_dyn=14.3505,
            b_cpu=(0.1110,),
            c_cpu=(-0.0011,),
            d_volt=0.3347,
            e_const=-40700.0,
            g_mem=(275.702,),
            h_mem=(-0.4644,),
        )
        thermal = ThermalState((300.0,), 300.0)
        assert leakage_power(spec, spec.mode(6), thermal) == pytest.approx(
            24785827.4020625125, rel=1e-12
        )

    def test_two_socket_terms_sum(self):
        spec2 = make_spec(
            b_cpu=(8e-4, 6e-4),
            c_cpu=(-1e-5, -2e-5),
            g_mem=(2e-4, 1e-4),
            h_mem=(-0.01, -0.02),
            n_sockets=2,
        )
        th = ThermalState((301.0, 305.0), 299.0)
        got = leakage_power(spec2, spec2.mode(6), th)
        assert got == pytest.approx(
            leakage_oracle(spec2, 1.35, (301.0, 305.0), 299.0), rel=1e-12
        )

    def test_socket_count_mismatch_rejected(self, spec):
        with pytest.raises(InvalidArgumentError):
            leakage_power(spec, spec.mode(1), ThermalState((300.0, 300.0), 300.0))

    def test_foreign_mode_rejected(self, spec, thermal):
        with pytest.raises(InvalidArgumentError):
            leakage_power(spec, DvfsMode(1, 9.9e9, 2.0), thermal)

    @given(
        t_cpu=st.floats(250.0, 400.0),
        t_mem=st.floats(250.0, 400.0),
        mode_ix=st.integers(1, 6),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_oracle_everywhere(self, t_cpu, t_mem, mode_ix):
        spec = make_spec()
        th = ThermalState((t_cpu,), t_mem)
        v = spec.mode(mode_ix).voltage_v
        assert leakage_power(spec, spec.mode(mode_ix), th) == pytest.approx(
            leakage_oracle(spec, v, (t_cpu,), t_mem), rel=1e-9, abs=1e-12
        )


class TestDynamicPower:
    def test_frozen_value(self, spec):
        # A * V^2 * f[GHz] * u = 14.3505 * 1.35^2 * 2.4 * 0.75
        assert dynamic_power(spec, spec.mode(6), 0.75) == pytest.approx(
            47.07681525, rel=1e-12
        )

    def test_zero_utilization_zero_power(self, spec):
        assert dynamic_power(spec, spec.mode(3), 0.0) == 0.0

    def test_linear_in_utilization(self, spec):
        p1 = dynamic_power(spec, spec.mode(4), 0.3)
        p2 = dynamic_power(spec, spec.mode(4), 0.6)
        assert p2 == pytest.approx(2 * p1, rel=1e-12)

    def test_negative_utilization_rejected(self, spec):
        with pytest.raises(ModelDomainError):
            dynamic_power(spec, spec.mode(1), -0.1)


class TestTotalPower:
    def test_is_sum_of_parts(self, spec, thermal):
        mode = spec.mode(5)
        assert total_power(spec, mode, thermal, 0.4) == pytest.approx(
            dynamic_power(spec, mode, 0.4) + leakage_power(spec, mode, thermal),
            rel=1e-12,
        )


class TestDynamicEnergy:
    def test_dimensional_form_equals_power_times_time(self, spec):
        # E = P_dyn(u) * busy_time must hold exactly for the dimensional form
        mode = spec.mode(6)
        u, n = 0.5, 3.6e10
        busy = spec.cpi * n / mode.frequency_hz
        e = dynamic_energy(spec, mode, [(u, n)], form="dimensional")
        # total power when the server runs this single task at utilization u,
        # integrated over the time the task keeps the server busy at full rate
        assert e == pytest.approx(
            spec.a_dyn * mode.voltage_v**2 * (mode.frequency_hz / FREQ_NORM_HZ) * busy,
            rel=1e-12,
        )

    def test_as_written_scales_terms_by_utilization(self, spec):
        mode = spec.mode(2)
        terms = [(0.25, 1e9), (0.75, 2e9)]
        expected = (
            spec.a_dyn
            * mode.voltage_v**2
            * spec.cpi
            * (0.25 * 1e9 + 0.75 * 2e9)
            / FREQ_NORM_HZ
        )
        assert dynamic_energy(spec, mode, terms) == pytest.approx(expected, rel=1e-12)

    def test_zero_utilization_with_work_is_infeasible(self, spec):
        with pytest.raises(InfeasibleTermError):
            dynamic_energy(spec, spec.mode(1), [(0.0, 1e6)])

    def test_zero_work_contributes_nothing(self, spec):
        assert dynamic_energy(spec, spec.mode(1), [(0.0, 0.0)]) == 0.0

    def test_unknown_form_rejected(self, spec):
        with pytest.raises(InvalidArgumentError):
            dynamic_energy(spec, spec.mode(1), [], form="bogus")


class TestLeakageEnergy:
    def test_equals_power_times_busy_time(self, spec, thermal):
        mode = spec.mode(3)
        n = 5.2e10
        expected = leakage_power(spec, mode, thermal) * spec.cpi * n / mode.frequency_hz
        assert leakage_energy(spec, mode, thermal, n) == pytest.approx(
            expected, rel=1e-12
        )

    def test_additive_in_instructions(self, spec, thermal):
        mode = spec.mode(1)
        e = leakage_energy(spec, mode, thermal, 3e9)
        assert leakage_energy(spec, mode, thermal, 1e9) + leakage_energy(
            spec, mode, thermal, 2e9
        ) == pytest.approx(e, rel=1e-12)


class TestUnitSanity:
    def test_bundled_intel_model_power_in_server_range(self):
        # a realistic single server at realistic temperatures should draw
        # tens-to-hundreds of watts
        from greensched.scenario import load_server_spec
        from greensched.scenario import FIXTURES

        spec = load_server_spec(str(FIXTURES / "intel_xeon_e5620.json"))
        th = ThermalState((301.0,) * spec.n_sockets, 301.0)
        for mode in spec.modes:
            p = total_power(spec, mode, th, 1.0)
            assert 10.0 <= p <= 1000.0

    def test_bundled_amd_model_power_in_server_range(self):
        from greensched.scenario import load_server_spec
        from greensched.scenario import FIXTURES

        spec = load_server_spec(str(FIXTURES / "amd_opteron_270.json"))
        th = ThermalState((302.5,) * spec.n_sockets, 302.5)
        for mode in spec.modes:
            p = total_power(spec, mode, th, 1.0)
            assert 10.0 <= p <= 1000.0


class TestThermalState:
    def test_out_of_band_rejected(self):
        with pytest.raises(ModelDomainError):
            ThermalState((200.0,), 300.0)
        with pytest.raises(ModelDomainError):
            ThermalState((300.0,), 500.0)

    def test_a_string_temperature_is_named(self):
        # It escaped as a raw TypeError from the band compare before.
        with pytest.raises(InvalidArgumentError, match=r"^t_cpu_k\[0\] must be a finite number, got 'a'$"):
            ThermalState(("a",), 300.0)
        with pytest.raises(InvalidArgumentError, match=r"^t_mem_k must be a finite number, got nan$"):
            ThermalState((300.0,), math.nan)

    def test_a_bare_cpu_temperature_is_named(self):
        # It escaped as a raw TypeError ('float' object is not iterable) before.
        with pytest.raises(InvalidArgumentError, match=r"^t_cpu_k must be a tuple .*, got 300.0$"):
            ThermalState(300.0, 300.0)


class TestDvfsMode:
    @pytest.mark.parametrize("frequency_hz, voltage_v, message", [
        (math.nan, 1.0, "frequency_hz must be a finite number > 0, got nan"),
        (1e9, math.inf, "voltage_v must be a finite number > 0, got inf"),
        ("1e9", 1.0, "frequency_hz must be a finite number > 0, got '1e9'"),
        (1e9, 0.0, "voltage_v must be a finite number > 0, got 0.0"),
    ], ids=["nan-frequency", "inf-voltage", "string-frequency", "zero-voltage"])
    def test_non_finite_or_non_positive_values_are_named(self, frequency_hz, voltage_v, message):
        # NaN and inf built before.
        with pytest.raises(InvalidArgumentError, match=f"^mode 1: {message}$"):
            DvfsMode(1, frequency_hz, voltage_v)

    @pytest.mark.parametrize("index", ["x", True, 0, 1.0], ids=["string", "bool", "zero", "float"])
    def test_index_is_an_int_of_at_least_one(self, index):
        # Each built before.
        with pytest.raises(InvalidArgumentError,
                           match=f"^mode index must be an int >= 1, got {re.escape(repr(index))}$"):
            DvfsMode(index, 1e9, 1.0)


class TestServerSpec:
    def test_mode_lookup_is_one_based(self, spec):
        assert spec.mode(1).frequency_hz == 1.73e9
        assert spec.mode(6).frequency_hz == 2.40e9
        with pytest.raises(InvalidArgumentError):
            spec.mode(0)
        with pytest.raises(InvalidArgumentError):
            spec.mode(7)

    def test_frequencies_must_increase(self):
        with pytest.raises(InvalidArgumentError):
            make_spec(modes=(DvfsMode(1, 2e9, 1.0), DvfsMode(2, 1e9, 1.1)))

    def test_socket_coefficient_arity_enforced(self):
        with pytest.raises(InvalidArgumentError):
            make_spec(b_cpu=(1e-4, 1e-4), n_sockets=1)

    @pytest.mark.parametrize("fields, message", [
        ({"cpi": math.nan}, "cpi must be a finite number > 0, got nan"),
        ({"cpi": math.inf}, "cpi must be a finite number > 0, got inf"),
        ({"cpi": "1"}, "cpi must be a finite number > 0, got '1'"),
        ({"a_dyn": math.nan}, "a_dyn must be a finite number, got nan"),
        ({"b_cpu": (math.nan,)}, r"b_cpu\[0\] must be a finite number, got nan"),
        ({"e_const": True}, "e_const must be a finite number, got True"),
        ({"n_sockets": True}, "n_sockets must be an int >= 1, got True"),
        ({"n_sockets": 1.0}, r"n_sockets must be an int >= 1, got 1\.0"),
        ({"h_mem": -0.01}, r"h_mem must have one entry per socket \(1\), got -0\.01"),
    ], ids=["nan-cpi", "inf-cpi", "string-cpi", "nan-a_dyn", "nan-b_cpu", "bool-e_const",
            "bool-n_sockets", "float-n_sockets", "bare-h_mem"])
    def test_non_finite_coefficients_and_raw_types_are_named(self, fields, message):
        # Each built before; cpi=nan then priced every allocation at nan J with lambda 0.
        with pytest.raises(InvalidArgumentError, match=f"^{message}$"):
            make_spec(**fields)

    def test_coefficients_may_be_negative(self):
        spec = make_spec(a_dyn=-1.0, d_volt=-0.3, e_const=-5.0, b_cpu=(-1e-4,))
        assert (spec.a_dyn, spec.b_cpu) == (-1.0, (-1e-4,))

    def test_coefficient_names_two_sockets(self):
        spec2 = make_spec(
            b_cpu=(1e-4, 1e-4),
            c_cpu=(-1e-5, -1e-5),
            g_mem=(1e-4, 1e-4),
            h_mem=(-0.01, -0.01),
            n_sockets=2,
        )
        assert spec2.coefficient_names() == [
            "A", "B1", "B2", "C1", "C2", "D", "E", "G1", "G2", "H1", "H2",
        ]
