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
# Only the bare package (~10 ms): perfbench/invoke.py reads scipy's version
# from sys.modules, and scipy.optimize is deferred to optimize_mu.
import scipy  # noqa: F401

from .security import (
    KeyRateResult,
    ProtocolConfig,
    SecurityBounds,
    SourceCharacterization,
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
        if self.mu < 0.0:
            raise ValueError(f"mean photon number must be >= 0, got {self.mu}")
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
    if group_size < 1:
        raise ValueError(f"group size must be >= 1, got {group_size}")
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"transmittance must lie in [0, 1], got {eta}")
    if mu < 0.0:
        raise ValueError(f"mean photon number must be >= 0, got {mu}")
    x = group_size * eta * mu
    return x * math.exp(-x) / 2.0


def rate_at_mu(
    cfg: ProtocolConfig, delta: float, eta: float, mu: float
) -> KeyRateResult:
    """Key rate of the phase-rotation source at a fixed mean photon number."""
    model = PhaseRotationModel(mu=mu, delta=delta, corr_len=cfg.corr_len)
    bounds = SecurityBounds.from_source(characterize(model))
    q = detection_rate(cfg.group_size, eta, mu)
    return key_rate(cfg, bounds, [q] * cfg.n_groups, mu=mu)


def optimize_mu(
    group_size: int,
    corr_len: int,
    delta: float,
    eta: float,
    e_bit: float,
    f_ec_mode: str = "shannon",
    f_ec_fixed: float | None = None,
    mu_min: float = 1e-6,
    mu_max: float = 10.0,
    grid_points: int = 200,
) -> tuple[float, KeyRateResult]:
    """Maximize the key rate over the mean photon number.

    Scans a log-spaced grid over ``[mu_min, mu_max]`` and refines the best
    interior point by golden-section search on its bracketing interval.  If
    no grid point yields a positive rate the grid optimum is returned as is,
    with rate 0.  Deterministic; grid points may be evaluated in any order.

    The golden-section refinement runs at scipy's default tolerance, so it
    stops once the bracket is about 1.5e-8 of mu wide.  In an optimised
    row, digits of ``mu``, ``q``, ``e_ph_upper`` and ``f_pa`` past about
    the 8th significant one therefore follow rounding, not the optimum.

    Returns
    -------
    (mu_opt, result) : tuple of float and KeyRateResult
        The refined rate is never below the best grid rate.
    """
    # Deferred: scipy.optimize is most of the package import time, used only here.
    from scipy.optimize import golden

    if not 0.0 < mu_min <= mu_max:
        raise ValueError(f"need 0 < mu_min <= mu_max, got [{mu_min}, {mu_max}]")
    if grid_points < 3:
        raise ValueError(f"grid needs at least 3 points, got {grid_points}")
    cfg = ProtocolConfig(
        group_size=group_size,
        corr_len=corr_len,
        e_bit=e_bit,
        f_ec_mode=f_ec_mode,
        f_ec_fixed=f_ec_fixed,
    )
    grid = np.geomspace(mu_min, mu_max, grid_points)
    rates = np.array(
        [rate_at_mu(cfg, delta, eta, mu).rate_per_pulse for mu in grid]
    )
    best = int(np.argmax(rates))
    mu_opt = float(grid[best])
    if rates[best] > 0.0 and 0 < best < grid_points - 1:
        if rates[best] > rates[best - 1] and rates[best] > rates[best + 1]:
            refined = float(
                golden(
                    lambda m: -rate_at_mu(cfg, delta, eta, float(m)).rate_per_pulse,
                    brack=(float(grid[best - 1]), mu_opt, float(grid[best + 1])),
                )
            )
            if (
                mu_min <= refined <= mu_max
                and rate_at_mu(cfg, delta, eta, refined).rate_per_pulse
                > rates[best]
            ):
                mu_opt = refined
    return mu_opt, rate_at_mu(cfg, delta, eta, mu_opt)
