"""Server power/energy model: temperature-dependent leakage plus DVFS dynamic power.

The leakage side is a polynomial in CPU/memory temperature and supply voltage
(one CPU term per socket, memory at constant voltage); the dynamic side is
``A * V^2 * f * u``.  The dynamic coefficient ``A`` is normalized to frequency
in GHz, so fitted constants stay in a human-readable range.

The per-host energy split is

* dynamic:  ``A * V^2 * CPI * sum_i(u_i * n_i)``  (the default "as-written"
  form; the "dimensional" variant drops the ``u_i`` factor, which is what a
  strict P*t derivation yields),
* leakage:  ``P_leak * CPI / f * sum_i(n_i)``  (static power integrated over
  the busy time implied by the executed instruction count).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    InfeasibleTermError,
    InvalidArgumentError,
    ModelDomainError,
    UnderdeterminedFitError,
)

#: Frequency unit the dynamic coefficient is normalized to.
FREQ_NORM_HZ = 1e9

#: Plausibility band for temperatures, kelvin.
TEMP_BAND_K = (250.0, 400.0)

DYN_ENERGY_FORMS = ("as-written", "dimensional")


@dataclass(frozen=True)
class DvfsMode:
    """One CPU operating point: 1-based ordinal, frequency and supply voltage."""

    index: int
    frequency_hz: float
    voltage_v: float

    def __post_init__(self):
        if self.frequency_hz <= 0:
            raise InvalidArgumentError(f"mode {self.index}: frequency must be > 0")
        if self.voltage_v <= 0:
            raise InvalidArgumentError(f"mode {self.index}: voltage must be > 0")


@dataclass(frozen=True)
class ThermalState:
    """Fixed operating temperatures: one CPU temperature per socket, one memory."""

    t_cpu_k: tuple[float, ...]
    t_mem_k: float

    def __post_init__(self):
        lo, hi = TEMP_BAND_K
        for t in (*self.t_cpu_k, self.t_mem_k):
            if not (lo <= t <= hi):
                raise ModelDomainError(
                    f"temperature {t} K outside plausible band [{lo}, {hi}] K"
                )


@dataclass(frozen=True)
class TelemetrySample:
    """One power measurement at a known utilization, thermal state and mode."""

    utilization: float
    t_cpu_k: float
    t_mem_k: float
    mode_index: int
    measured_power_w: float

    def __post_init__(self):
        if not 0.0 <= self.utilization <= 1.0:
            raise InvalidArgumentError("utilization must be in [0, 1]")
        if self.measured_power_w < 0:
            raise InvalidArgumentError("measured power must be >= 0")


@dataclass(frozen=True)
class ServerSpec:
    """A physical machine: technological constants, mode table, CPI.

    ``b_cpu``/``c_cpu``/``g_mem``/``h_mem`` hold one entry per socket; ``a_dyn``,
    ``d_volt`` and ``e_const`` are per machine.  ``f_unused`` is carried through
    from calibration tables for completeness but enters no equation.
    """

    server_id: int
    label: str
    a_dyn: float
    b_cpu: tuple[float, ...]
    c_cpu: tuple[float, ...]
    d_volt: float
    e_const: float
    g_mem: tuple[float, ...]
    h_mem: tuple[float, ...]
    modes: tuple[DvfsMode, ...]
    cpi: float = 1.0
    n_sockets: int = 1
    f_unused: float | None = None

    def __post_init__(self):
        if not self.modes:
            raise InvalidArgumentError("server needs at least one DVFS mode")
        if self.cpi <= 0:
            raise InvalidArgumentError("cpi must be > 0")
        if self.n_sockets < 1:
            raise InvalidArgumentError("n_sockets must be >= 1")
        for name, coeffs in (
            ("b_cpu", self.b_cpu),
            ("c_cpu", self.c_cpu),
            ("g_mem", self.g_mem),
            ("h_mem", self.h_mem),
        ):
            if len(coeffs) != self.n_sockets:
                raise InvalidArgumentError(
                    f"{name} must have one entry per socket "
                    f"({len(coeffs)} != {self.n_sockets})"
                )
        freqs = [m.frequency_hz for m in self.modes]
        volts = [m.voltage_v for m in self.modes]
        if any(f2 <= f1 for f1, f2 in zip(freqs, freqs[1:])):
            raise InvalidArgumentError("mode frequencies must be strictly increasing")
        if any(v2 < v1 for v1, v2 in zip(volts, volts[1:])):
            raise InvalidArgumentError("mode voltages must be non-decreasing")
        if [m.index for m in self.modes] != list(range(1, len(self.modes) + 1)):
            raise InvalidArgumentError("mode indices must be 1..K in order")

    def mode(self, index: int) -> DvfsMode:
        """Look up a mode by its 1-based ordinal."""
        if not 1 <= index <= len(self.modes):
            raise InvalidArgumentError(
                f"mode index {index} out of range 1..{len(self.modes)}"
            )
        return self.modes[index - 1]

    def coefficient_names(self) -> list[str]:
        """Names of the free coefficients, in design-matrix column order."""
        names = ["A"]
        names += [f"B{s + 1}" for s in range(self.n_sockets)]
        names += [f"C{s + 1}" for s in range(self.n_sockets)]
        names += ["D", "E"]
        names += [f"G{s + 1}" for s in range(self.n_sockets)]
        names += [f"H{s + 1}" for s in range(self.n_sockets)]
        return names


def _check_mode(spec: ServerSpec, mode: DvfsMode) -> None:
    if mode not in spec.modes:
        raise InvalidArgumentError(
            f"mode {mode.index} is not a mode of server {spec.server_id}"
        )


def leakage_power(spec: ServerSpec, mode: DvfsMode, thermal: ThermalState) -> float:
    """Static power at one operating point, watts.

    Per-socket CPU terms at each socket's own temperature, plus machine-wide
    voltage and constant terms, plus per-socket memory terms at the (shared)
    memory temperature.
    """
    _check_mode(spec, mode)
    if len(thermal.t_cpu_k) != spec.n_sockets:
        raise InvalidArgumentError(
            f"thermal state has {len(thermal.t_cpu_k)} CPU temperatures, "
            f"server has {spec.n_sockets} sockets"
        )
    v = mode.voltage_v
    tm = thermal.t_mem_k
    total = spec.d_volt * v**3 + spec.e_const
    for s in range(spec.n_sockets):
        tc = thermal.t_cpu_k[s]
        total += spec.b_cpu[s] * tc * tc * v
        total += spec.c_cpu[s] * tc * v * v
        total += spec.g_mem[s] * tm * tm
        total += spec.h_mem[s] * tm
    return total


def dynamic_power(spec: ServerSpec, mode: DvfsMode, total_utilization: float) -> float:
    """Switching power ``A * V^2 * f * u`` (f normalized to GHz), watts."""
    _check_mode(spec, mode)
    if total_utilization < 0:
        raise ModelDomainError("utilization must be >= 0")
    f_norm = mode.frequency_hz / FREQ_NORM_HZ
    return spec.a_dyn * mode.voltage_v**2 * f_norm * total_utilization


def total_power(
    spec: ServerSpec,
    mode: DvfsMode,
    thermal: ThermalState,
    total_utilization: float,
) -> float:
    """Dynamic plus leakage power, watts."""
    return dynamic_power(spec, mode, total_utilization) + leakage_power(
        spec, mode, thermal
    )


def dynamic_energy(
    spec: ServerSpec,
    mode: DvfsMode,
    per_task_terms: Iterable[tuple[float, float]],
    form: str = "as-written",
) -> float:
    """Dynamic energy for a set of ``(utilization, instruction_count)`` terms.

    ``as-written`` evaluates ``A * V^2 * CPI * sum(u_i * n_i)``; ``dimensional``
    drops the ``u_i`` factor inside the sum.  Because ``A`` is normalized to
    frequency in GHz, the instruction sum is scaled by 1e9 so that
    energy == dynamic_power * busy_time exactly in the dimensional form.
    """
    _check_mode(spec, mode)
    if form not in DYN_ENERGY_FORMS:
        raise InvalidArgumentError(f"unknown dynamic energy form {form!r}")
    acc = 0.0
    for u, n in per_task_terms:
        if n < 0:
            raise ModelDomainError("instruction count must be >= 0")
        if u == 0.0 and n > 0:
            raise InfeasibleTermError("zero utilization with nonzero instructions")
        if not 0.0 <= u <= 1.0:
            raise ModelDomainError("per-task utilization must be in (0, 1]")
        acc += (u * n) if form == "as-written" else n
    return spec.a_dyn * mode.voltage_v**2 * spec.cpi * acc / FREQ_NORM_HZ


def leakage_energy(
    spec: ServerSpec,
    mode: DvfsMode,
    thermal: ThermalState,
    total_instructions: float,
) -> float:
    """Static power integrated over the busy time ``CPI * n / f``."""
    if total_instructions < 0:
        raise ModelDomainError("instruction count must be >= 0")
    p_leak = leakage_power(spec, mode, thermal)
    return p_leak * spec.cpi / mode.frequency_hz * total_instructions


# --- calibration ----------------------------------------------------------

#: The coefficients telemetry identifies, in design-matrix column order.  A
#: sample has one CPU and one memory temperature, so B, C, G and H stand for
#: their sums over the sockets.
LUMPED = ("A", "B", "C", "D", "E", "G", "H")

#: Relative singular-value cutoff of the fit's rank check.  The check runs on
#: the design with each column scaled to unit norm: the raw columns span 1 to
#: about 1e5 (``T²·V``), so a cutoff on them would also reflect the units.
RANK_RTOL = 1e-10


def _design_row(spec: ServerSpec, s: TelemetrySample) -> list[float]:
    """The terms that multiply each ``LUMPED`` coefficient in one sample's power."""
    mode = spec.mode(s.mode_index)
    v = mode.voltage_v
    f_norm = mode.frequency_hz / FREQ_NORM_HZ
    tc = s.t_cpu_k
    tm = s.t_mem_k
    return [v * v * f_norm * s.utilization, tc * tc * v, tc * v * v, v**3, 1.0, tm * tm, tm]


@dataclass(frozen=True)
class FitResult:
    spec: ServerSpec
    validation_error_pct: float
    n_fit: int
    n_validate: int


def fit_constants(
    samples: Sequence[TelemetrySample],
    template: ServerSpec,
    split: float = 0.65,
) -> FitResult:
    """Least-squares calibration of the power model's coefficients.

    The model is linear in its coefficients given (u, T, V, f).  A sample has
    one CPU and one memory temperature, so it identifies A, D, E and the
    per-socket sums of B, C, G and H (``LUMPED``); ordinary least squares on
    the fitting split recovers these seven, and the fitted spec splits each
    sum equally across the sockets.  The returned validation error is the
    mean absolute percentage error on the held-out split.  At least twice as
    many samples as ``template.coefficient_names()`` are required.

    Samples are split deterministically by interleaving: sample ``i`` goes to
    the fitting set when ``floor((i+1)*split) > floor(i*split)``.
    """
    if not 0.0 < split < 1.0:
        raise InvalidArgumentError("split must be in (0, 1)")
    names = template.coefficient_names()
    n_free = len(names)
    if len(samples) < 2 * n_free:
        raise InvalidArgumentError(
            f"need at least {2 * n_free} samples to fit {n_free} coefficients, "
            f"got {len(samples)}"
        )

    fit_idx = [
        i
        for i in range(len(samples))
        if math.floor((i + 1) * split) > math.floor(i * split)
    ]
    val_idx = sorted(set(range(len(samples))) - set(fit_idx))
    if not val_idx:  # degenerate split on tiny inputs
        val_idx = fit_idx

    design = np.array([_design_row(template, samples[i]) for i in fit_idx])
    target = np.array([samples[i].measured_power_w for i in fit_idx])

    norms = np.linalg.norm(design, axis=0)
    _, sv, vt = np.linalg.svd(design / np.where(norms > 0, norms, 1.0), full_matrices=False)
    rank = int(np.sum(sv > RANK_RTOL * sv[0]))
    if rank < len(LUMPED):
        bad = {LUMPED[j] for row in vt[rank:] for j in np.flatnonzero(np.abs(row) > 1e-6)}
        expanded = sorted(n for n in names if n.rstrip("0123456789") in bad)
        raise UnderdeterminedFitError(
            f"design matrix rank {rank} < {len(LUMPED)}; "
            f"unidentifiable coefficients: {', '.join(expanded)}",
            expanded,
        )

    theta, *_ = np.linalg.lstsq(design, target, rcond=None)
    a, b, c, d, e, g, h = theta.tolist()
    ns = template.n_sockets
    fitted = dataclasses.replace(
        template, a_dyn=a, b_cpu=(b / ns,) * ns, c_cpu=(c / ns,) * ns, d_volt=d, e_const=e,
        g_mem=(g / ns,) * ns, h_mem=(h / ns,) * ns,
    )

    val_design = np.array([_design_row(template, samples[i]) for i in val_idx])
    val_target = np.array([samples[i].measured_power_w for i in val_idx])
    pred = val_design @ theta
    nonzero = np.abs(val_target) > 1e-12
    mape = float(
        np.mean(np.abs(pred[nonzero] - val_target[nonzero]) / np.abs(val_target[nonzero]))
        * 100.0
    )
    return FitResult(fitted, mape, len(fit_idx), len(val_idx))
