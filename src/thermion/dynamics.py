"""Time evolution and the ionization signature.

Survival probability of the bound-reference state under the coupled
evolution, one Lanczos tridiagonalisation per series, with the recurrence
horizon of the frequency grid printed next to every series: beyond
2 pi / du a discretized bath stops emulating a continuum, so decay claims
are only made before it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import lanczos_functions
from .operators import Truncation, assemble_liouvillian
from .params import ModelParams
from .reports import TimeSeries


def recurrence_time(params: ModelParams) -> float:
    du = 2.0 * params.u_max / params.n_u
    return 2.0 * np.pi / du


def survival(params: ModelParams, times: np.ndarray, tol: float = 1e-8,
             trunc: Truncation | None = None) -> TimeSeries:
    """|<e_pi, exp(-i t L) e_pi>|^2 for e_pi the bound x bound x vacuum
    reference state: a quadratic form of L, so one Lanczos
    tridiagonalisation gives every sample time.  The Krylov dimension
    grows by an eighth until the survival at its last two checks agrees
    within tol; meta carries that difference as ``krylov_error``.
    ``trunc`` is a truncation of ``params`` (a new one when none is given)."""
    times = np.asarray(times, float)
    act = assemble_liouvillian(params, trunc)
    basis = act.trunc.basis
    ref = np.zeros(basis.dim)
    ref[basis.vacuum_bound_index()] = 1.0
    res = lanczos_functions(
        act.matvec, ref, lambda theta: np.exp(-1j * np.outer(times, theta)),
        tol, measure=lambda amp: np.abs(amp) ** 2)
    return TimeSeries(
        times=times, values=np.abs(res.values) ** 2,
        observable="reference projection",
        meta={"lam": params.lam, "beta": params.beta,
              "recurrence_time": recurrence_time(params),
              "dim": basis.dim, "n_max": params.n_max,
              "krylov_error": res.error})


@dataclass
class DecayFit:
    rate: float
    residual: float
    window: tuple
    widened: bool


def decay_rate(series: TimeSeries, window: tuple | None = None) -> DecayFit:
    """Least-squares exponential fit of the series on a window; if the
    smoothed series is not decreasing there, the window is widened once
    and the fit flagged."""
    t = series.times
    v = np.real(series.values)
    t_rec = series.meta.get("recurrence_time", t[-1])
    if window is None:
        window = (t[0] + 0.05 * (t[-1] - t[0]), min(t[-1], 0.95 * t_rec))
    widened = False

    def fit(win):
        mask = (t >= win[0]) & (t <= win[1]) & (v > 0)
        if mask.sum() < 3:
            raise ValueError("fit window holds fewer than 3 samples: raise "
                             "dynamics.n_times or widen dynamics.fit_window")
        coeff = np.polyfit(t[mask], np.log(v[mask]), 1)
        pred = np.polyval(coeff, t[mask])
        residual = float(np.sqrt(np.mean((pred - np.log(v[mask])) ** 2)))
        return -float(coeff[0]), residual, mask

    rate, res, mask = fit(window)
    smooth = np.convolve(v, np.ones(5) / 5.0, mode="same")
    if not np.all(np.diff(smooth[mask]) <= 1e-12):
        lo = max(t[0], window[0] / 2.0)
        hi = min(t[-1], 0.95 * t_rec)
        window = (lo, hi)
        rate, res, mask = fit(window)
        widened = True
    return DecayFit(rate, res, window, widened)

