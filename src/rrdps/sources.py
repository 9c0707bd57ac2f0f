"""Coherent-state source models and mean-photon-number optimization.

Models a phase-encoding laser source whose imperfect modulator lets each bit
rotate the phase of later pulses: a bit value of 1 shifts the next pulse by
``delta`` radians, the one after by ``delta/2``, and so on, halving per lag
up to ``corr_len`` pulses.  The model maps onto a
:class:`~rrdps.security.SourceCharacterization` through coherent-state
overlaps, and ties into the detection side through the interferometer
click-rate formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# Imported bare (~10 ms) and never used for computation: the benchmark
# harness reads scipy's version from sys.modules after a run.
import scipy  # noqa: F401

from .security import (
    KeyRateResult,
    ProtocolConfig,
    SecurityBounds,
    SourceCharacterization,
    _require_integer,
    key_rate,
)


def coherent_overlap_mag(mu: float, theta: float) -> float:
    """Overlap magnitude of two coherent states of equal mean photon number
    ``mu`` whose amplitudes differ by phase ``theta``:
    ``exp(mu * (cos(theta) - 1))``.
    """
    if mu < 0.0:
        raise ValueError(f"mean photon number must be >= 0, got {mu}")
    return math.exp(mu * (math.cos(theta) - 1.0))


@dataclass(frozen=True)
class PhaseRotationModel:
    """Correlated coherent source with geometrically decaying phase kicks.

    A bit of value 1 encoded at some pulse rotates the phase of the pulse
    ``lag`` positions later by ``delta / 2**(lag-1)`` radians, for lags up
    to ``corr_len``.  Kicks from several past bits add up.
    """

    mu: float
    delta: float
    corr_len: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.mu < math.inf:
            raise ValueError(f"mu must be a finite number >= 0, got {self.mu}")
        if not -math.inf < self.delta < math.inf:
            raise ValueError(f"delta must be finite, got {self.delta}")
        _require_integer("corr_len", self.corr_len)
        if self.corr_len < 0:
            raise ValueError(f"correlation length must be >= 0, got {self.corr_len}")

    def rotation(self, lag: int) -> float:
        """Phase kick at the given lag, in radians."""
        if not 1 <= lag <= self.corr_len:
            raise ValueError(f"lag must lie in [1, {self.corr_len}], got {lag}")
        return self.delta / 2 ** (lag - 1)


def characterize(model: PhaseRotationModel) -> SourceCharacterization:
    """Map the phase-rotation model onto source bounds.

    The fidelity deficit at lag d comes from the overlap of two coherent
    states separated by the lag-d phase kick; the vacuum floor is the exact
    coherent-state vacuum probability ``exp(-mu)`` for either bit value.
    """
    eps = []
    for lag in range(1, model.corr_len + 1):
        theta = model.rotation(lag)
        # 1 - overlap^2, written with expm1 so tiny deficits keep precision
        eps.append(-math.expm1(2.0 * model.mu * (math.cos(theta) - 1.0)))
    p_vac = math.exp(-model.mu)
    return SourceCharacterization(
        corr_len=model.corr_len, eps=tuple(eps), p_vac0=p_vac, p_vac1=p_vac
    )


def detection_rate(group_size: int, eta: float, mu: float) -> float:
    """Expected per-group detection rate of the variable-delay interferometer.

    ``group_size * eta * mu * exp(-group_size * eta * mu) / 2`` for overall
    transmittance ``eta`` and mean photon number ``mu``.
    """
    _require_integer("group_size", group_size)
    if group_size < 1:
        raise ValueError(f"group size must be >= 1, got {group_size}")
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"transmittance must lie in [0, 1], got {eta}")
    if not 0.0 <= mu < math.inf:
        raise ValueError(f"mean photon number must be a finite number >= 0, got {mu}")
    x = group_size * eta * mu
    return x * math.exp(-x) / 2.0


def _coherent_point(
    cfg: ProtocolConfig, delta: float, eta: float, mu: float
) -> tuple[SecurityBounds, float]:
    # The source bounds and the per-group detection rate at one mu, which
    # both the analytic rate and a simulated session consume.
    model = PhaseRotationModel(mu=mu, delta=delta, corr_len=cfg.corr_len)
    bounds = SecurityBounds.from_source(characterize(model))
    return bounds, detection_rate(cfg.group_size, eta, mu)


def rate_at_mu(
    cfg: ProtocolConfig, delta: float, eta: float, mu: float
) -> KeyRateResult:
    """Key rate of the phase-rotation source at a fixed mean photon number."""
    bounds, q = _coherent_point(cfg, delta, eta, mu)
    return key_rate(cfg, bounds, [q] * cfg.n_groups)


# scipy.optimize.golden's constants and default xtol (sqrt of the double
# machine epsilon); keep them as scipy spells them so iterates match bitwise.
_GOLDEN_R = 0.61803399
_GOLDEN_C = 1.0 - _GOLDEN_R
_GOLDEN_XTOL = 1.4901161193847656e-08

# The mu grid that optimize_mu scans: MU_GRID_POINTS log-spaced values
# from MU_MIN to MU_MAX.
MU_MIN = 1e-6
MU_MAX = 10.0
MU_GRID_POINTS = 200


def _golden(func, xa: float, xb: float, xc: float, maxiter: int = 5000) -> float:
    """Minimise ``func`` by golden-section search on the bracket ``xa < xb < xc``.

    Reproduces the 3-point-bracket branch of ``scipy.optimize.golden`` at its
    default tolerance operation for operation, so it returns the same float,
    but trusts the caller's bracket (``func(xb)`` below both ends) instead of
    evaluating its three points: ``func`` runs scipy's ``nfev - 3`` times.
    """
    x0, x3 = xa, xc
    if abs(xc - xb) > abs(xb - xa):
        x1, x2 = xb, xb + _GOLDEN_C * (xc - xb)
    else:
        x1, x2 = xb - _GOLDEN_C * (xb - xa), xb
    f1, f2 = func(x1), func(x2)
    for _ in range(maxiter):
        if abs(x3 - x0) <= _GOLDEN_XTOL * (abs(x1) + abs(x2)):
            break
        if f2 < f1:
            x0, x1, f1 = x1, x2, f2
            x2 = _GOLDEN_R * x1 + _GOLDEN_C * x3
            f2 = func(x2)
        else:
            x3, x2, f2 = x2, x1, f1
            x1 = _GOLDEN_R * x2 + _GOLDEN_C * x0
            f1 = func(x1)
    return x1 if f1 < f2 else x2


def optimize_mu(
    group_size: int,
    corr_len: int,
    delta: float,
    eta: float,
    e_bit: float,
    f_ec_mode: str = "shannon",
    f_ec_fixed: float | None = None,
) -> tuple[float, KeyRateResult]:
    """Maximize the key rate over the mean photon number.

    Scans a fixed grid of ``MU_GRID_POINTS`` (200) log-spaced mu from
    ``MU_MIN`` (1e-6) to ``MU_MAX`` (10) and refines the best interior
    point by golden-section search on its bracketing interval.  If
    no grid point yields a positive rate the grid optimum is returned as is,
    with rate 0.  Deterministic; grid points may be evaluated in any order.

    The refinement reproduces the iterates of ``scipy.optimize.golden`` at
    its default ``xtol`` of 1.4901161193847656e-08 bit for bit, without
    importing ``scipy.optimize``; it stops once the bracket is about 1.5e-8
    of mu wide.  In an optimised row, digits of ``mu``, ``q``,
    ``e_ph_upper`` and ``f_pa`` past about the 8th significant one therefore
    follow rounding, not the optimum.  Each mu is evaluated once, except the
    grid's best point, which the search re-evaluates as scipy does.

    Returns
    -------
    (mu_opt, result) : tuple of float and KeyRateResult
        The refined rate is never below the best grid rate.
    """
    cfg = ProtocolConfig(
        group_size=group_size,
        corr_len=corr_len,
        e_bit=e_bit,
        f_ec_mode=f_ec_mode,
        f_ec_fixed=f_ec_fixed,
    )
    grid = [float(mu) for mu in np.geomspace(MU_MIN, MU_MAX, MU_GRID_POINTS)]
    results = [rate_at_mu(cfg, delta, eta, mu) for mu in grid]
    rates = np.array([res.rate_per_pulse for res in results])
    best = int(np.argmax(rates))
    mu_opt, result = grid[best], results[best]
    if rates[best] > 0.0 and 0 < best < len(grid) - 1:
        if rates[best] > rates[best - 1] and rates[best] > rates[best + 1]:
            searched = {}

            def neg_rate(mu: float) -> float:
                searched[mu] = res = rate_at_mu(cfg, delta, eta, mu)
                return -res.rate_per_pulse

            # The search stays inside its bracket, so inside the grid.
            refined = _golden(neg_rate, grid[best - 1], mu_opt, grid[best + 1])
            if searched[refined].rate_per_pulse > rates[best]:
                mu_opt, result = refined, searched[refined]
    return mu_opt, result
