"""Coherent-state source models and mean-photon-number optimization.

Models a phase-encoding laser source whose imperfect modulator lets each bit
rotate the phase of later pulses: a bit value of 1 shifts the next pulse by
``delta`` radians, the one after by ``delta/2``, and so on, halving per lag
up to ``corr_len`` pulses.  The model maps onto a
:class:`~rrdps.security.SourceCharacterization` through coherent-state
overlaps, and ties into the detection side through the interferometer
click-rate formula.

``PhaseRotationModel``, ``characterize``, ``detection_rate`` and
``rate_at_mu`` also take a 1-D array of mu in place of one mu, which is how
``optimize_mu`` evaluates its whole grid in one pass; each entry is bitwise
equal to the one-point result (see :mod:`rrdps.security`).
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
    SourceCharacterization,
    _LARGEST,
    _each,
    _require,
    _require_batch,
    _require_integer,
    key_rate,
)


@dataclass(frozen=True)
class PhaseRotationModel:
    """Correlated coherent source with geometrically decaying phase kicks.

    A bit of value 1 encoded at some pulse rotates the phase of the pulse
    ``lag`` positions later by ``delta / 2**(lag-1)`` radians, for lags up
    to ``corr_len``.  Kicks from several past bits add up.  ``mu`` may be a
    1-D array, one source per entry.
    """

    mu: float
    delta: float
    corr_len: int

    def __post_init__(self) -> None:
        _require_batch(self.mu, "mu must be a finite number >= 0, got {}", high=_LARGEST)
        _require(self.delta, "delta must be finite, got {}", -_LARGEST, _LARGEST)
        _require_integer("corr_len", self.corr_len, 0)

    def rotation(self, lag: int) -> float:
        """Phase kick at the given lag, in radians."""
        _require_integer("lag", lag, 1, self.corr_len)
        # Scaled by the exponent, as 2**(lag - 1) overflows a float past lag
        # 1024; where delta / 2**(lag - 1) is finite, it is the same float.
        return math.ldexp(self.delta, 1 - lag)


def characterize(model: PhaseRotationModel) -> SourceCharacterization:
    """Map the phase-rotation model onto source bounds.

    The fidelity deficit at lag d comes from the overlap of two coherent
    states separated by the lag-d phase kick; the vacuum floor is the exact
    coherent-state vacuum probability ``exp(-mu)`` for either bit value.
    """
    eps = []
    for lag in range(1, model.corr_len + 1):
        # mu goes last, so that a zero kick gives 0 even where 2 * mu is inf.
        scale = 2.0 * (math.cos(model.rotation(lag)) - 1.0)
        eps.append(_each(_deficit, model.mu, scale))
    p_vac = _each(math.exp, -model.mu)
    return SourceCharacterization(eps=tuple(eps), p_vac0=p_vac, p_vac1=p_vac)


def _deficit(mu: float, scale: float) -> float:
    # 1 - overlap^2, written with expm1 so tiny deficits keep precision.  A
    # product past the float range is -inf, for eps 1, as a float, unwarned.
    return -math.expm1(scale * mu)


def detection_rate(group_size: int, eta: float, mu: float) -> float:
    """Expected per-group detection rate of the variable-delay interferometer.

    ``group_size * eta * mu * exp(-group_size * eta * mu) / 2`` for overall
    transmittance ``eta`` and mean photon number ``mu``.
    """
    _require_integer("group_size", group_size, 1)
    _require(eta, "transmittance must lie in [0, 1], got {}")
    _require_batch(
        mu, "mean photon number must be a finite number >= 0, got {}", high=_LARGEST
    )
    return _each(_clicks, mu, group_size * eta)


def _clicks(mu: float, scale: float) -> float:
    # x * exp(-x) / 2 at x = scale * mu, or its limit 0 where x is inf.
    x = scale * mu
    return x * math.exp(-x) / 2.0 if x < math.inf else 0.0


def _coherent_point(
    cfg: ProtocolConfig, delta: float, eta: float, mu: float
) -> tuple[SourceCharacterization, float]:
    # The characterized source, bounds derived, and the per-group detection
    # rate at mu, or at each entry of a 1-D array of mu, which both the
    # analytic rate and a simulated session consume.
    model = PhaseRotationModel(mu=mu, delta=delta, corr_len=cfg.corr_len)
    return characterize(model), detection_rate(cfg.group_size, eta, mu)


def rate_at_mu(
    cfg: ProtocolConfig, delta: float, eta: float, mu: float
) -> KeyRateResult:
    """Key rate of the phase-rotation source at a fixed mean photon number.

    Given a 1-D array of mu, prices every entry in one array pass through
    the batch form of ``key_rate``: the result's numbers are arrays with one
    entry per mu, each bitwise equal to the one-point rate there.
    """
    source, q = _coherent_point(cfg, delta, eta, mu)
    return key_rate(cfg, source, [q] * cfg.n_groups)


# scipy.optimize.golden's constants, default xtol (sqrt of the double machine
# epsilon) and maxiter; keep them as scipy spells them so iterates match bitwise.
_GOLDEN_R = 0.61803399
_GOLDEN_C = 1.0 - _GOLDEN_R
_GOLDEN_XTOL = 1.4901161193847656e-08
_GOLDEN_MAXITER = 5000

# The mu grid that optimize_mu scans: MU_GRID_POINTS log-spaced values
# from MU_MIN to MU_MAX.
MU_MIN = 1e-6
MU_MAX = 10.0
MU_GRID_POINTS = 200


def _golden(func, xa: float, xb: float, xc: float) -> float:
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
    for _ in range(_GOLDEN_MAXITER):
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
    cfg: ProtocolConfig, delta: float, eta: float
) -> tuple[float, KeyRateResult]:
    """Maximize the key rate of protocol ``cfg`` over the mean photon number.

    Evaluates a fixed grid of ``MU_GRID_POINTS`` (200) log-spaced mu from
    ``MU_MIN`` (1e-6) to ``MU_MAX`` (10) in one ``rate_at_mu`` call on the
    array, each point bitwise equal to the one-point rate, and refines the
    best interior point by golden-section search on its bracketing
    interval, one ``rate_at_mu`` call per iterate.  If no grid point yields
    a positive rate the grid optimum is returned as is, with rate 0.
    Deterministic.

    The refinement reproduces the iterates of ``scipy.optimize.golden`` at
    its default ``xtol`` of 1.4901161193847656e-08 bit for bit, without
    importing ``scipy.optimize``; it stops once the bracket is about 1.5e-8
    of mu wide.  In an optimised row, digits of ``mu``, ``q``,
    ``e_ph_upper`` and ``f_pa`` past about the 8th significant one therefore
    follow rounding, not the optimum.  The grid's best point is evaluated
    a second time, and no other point: by the search, which re-evaluates it
    as scipy does, or, where none runs, by a one-point ``rate_at_mu`` for
    the returned result.

    Every argument is checked before any rate is evaluated.

    Returns
    -------
    (mu_opt, result) : tuple of float and KeyRateResult
        The refined rate is never below the best grid rate.
    """
    mus = np.geomspace(MU_MIN, MU_MAX, MU_GRID_POINTS)
    rates = rate_at_mu(cfg, delta, eta, mus).rate_per_pulse
    best = int(np.argmax(rates))
    grid = mus.tolist()
    mu_opt = grid[best]
    if rates[best] > 0.0 and 0 < best < len(grid) - 1:
        if rates[best] > rates[best - 1] and rates[best] > rates[best + 1]:
            searched = {}

            def neg_rate(mu: float) -> float:
                searched[mu] = res = rate_at_mu(cfg, delta, eta, mu)
                return -res.rate_per_pulse

            # The search stays inside its bracket, so inside the grid.
            refined = _golden(neg_rate, grid[best - 1], mu_opt, grid[best + 1])
            if searched[refined].rate_per_pulse > rates[best]:
                mu_opt = refined
            return mu_opt, searched[mu_opt]
    return mu_opt, rate_at_mu(cfg, delta, eta, mu_opt)
