"""Security bounds and key-rate evaluation for round-robin DPS QKD with
correlated pulse sources.

The emitted pulses may carry correlations: the bit encoded in one pulse can
leak into the states of up to ``corr_len`` subsequent pulses.  The functions
here turn a characterization of that leakage (fidelity deficits per lag and
vacuum-probability floors) into an upper bound on the phase-error rate and a
secure key rate per pulse.

Everything in this module is a pure function of its arguments and safe for
concurrent use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np


def binary_entropy(x: float) -> float:
    """Binary entropy in bits, with the convention used for privacy terms.

    Returns ``-x*log2(x) - (1-x)*log2(1-x)`` for ``x`` in [0, 0.5] (with
    the limit value 0 at x = 0) and returns 1.0 for any ``x`` above 0.5,
    so the privacy-amplification cost never decreases past the midpoint.
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"entropy argument must lie in [0, 1], got {x}")
    if x > 0.5:
        return 1.0
    if x == 0.0:
        return 0.0
    return -(x * math.log2(x) + (1.0 - x) * math.log2(1.0 - x))


def transfer_bound(x: float, y: float) -> float:
    """Bound a probability on one state by a probability on a nearby state.

    If an event has probability at most ``x`` on a reference state, and the
    actual state has overlap magnitude at least ``y`` with that reference,
    the same event on the actual state has probability at most

        x + (1 - y^2)(1 - 2x) + 2 y sqrt((1 - y^2) x (1 - x))

    whenever ``x <= y^2``.  Outside that regime no nontrivial statement
    survives and the bound is 1.

    Parameters
    ----------
    x : float
        Probability bound on the reference state, in [0, 1].
    y : float
        Overlap (fidelity) lower bound between the two states, in [0, 1].

    Returns
    -------
    float
        The transferred probability bound, in [max(x, 1 - y^2), 1].
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"probability bound must lie in [0, 1], got {x}")
    if not 0.0 <= y <= 1.0:
        raise ValueError(f"overlap bound must lie in [0, 1], got {y}")
    if x > y * y:
        return 1.0
    comp = 1.0 - y * y
    return x + comp * (1.0 - 2.0 * x) + 2.0 * y * math.sqrt(comp * x * (1.0 - x))


@lru_cache(maxsize=512)
def _log_binom_row(n: int) -> np.ndarray:
    lg_n = math.lgamma(n + 1)
    row = np.array(
        [lg_n - math.lgamma(y + 1) - math.lgamma(n - y + 1) for y in range(n + 1)]
    )
    row.flags.writeable = False
    return row


def _tail_row(n: int, p: float) -> np.ndarray:
    # P[Y > s] for s = 0..n-1: the pmf from the log-binomial row, summed
    # from the top down, so each tail adds its smallest terms first.
    if p == 0.0:
        return np.zeros(n)
    if p == 1.0:
        return np.ones(n)
    y = np.arange(n + 1)
    pmf = np.exp(_log_binom_row(n) + y * math.log(p) + (n - y) * math.log1p(-p))
    # Rounding can push a full tail a hair past 1.
    return np.minimum(np.cumsum(pmf[::-1])[-2::-1], 1.0)


def binomial_tail(n: int, s: int, p: float) -> float:
    """Upper-tail probability P[Y > s] for Y ~ Binomial(n, p).

    Reads entry ``s`` of the tail row that :func:`phase_error_upper` uses:
    the probability mass function is evaluated in log space through the
    log-gamma function, and every tail is a sum of its terms taken from
    the largest count down.  The results are exact at p = 0 and p = 1.
    For n up to 4096 and p anywhere in (0, 1), including within 1e-12 of
    either end, every tail above 1e-300 lies within a relative 1e-10 of
    its exact value (tested against arbitrary-precision references).

    Parameters
    ----------
    n : int
        Number of trials, at least 1.
    s : int
        Threshold; counted events strictly exceed it.  Must lie in [0, n-1].
    p : float
        Per-trial success probability in [0, 1].
    """
    if n < 1:
        raise ValueError(f"need at least one trial, got n={n}")
    if not 0 <= s <= n - 1:
        raise ValueError(f"threshold must lie in [0, {n - 1}], got s={s}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"success probability must lie in [0, 1], got {p}")
    return float(_tail_row(n, p)[s])


def vacuum_fidelity_bound(p_vac_a: float, p_vac_b: float) -> float:
    """Overlap floor between two states given only vacuum-probability floors.

    Two normalized states whose vacuum probabilities are at least
    ``p_vac_a`` and ``p_vac_b`` overlap in magnitude by at least
    ``2*sqrt(p_vac_a*p_vac_b) - 1``; the bound degrades to the trivial 0
    when the vacuum weights are too small to constrain anything.
    """
    if not 0.0 <= p_vac_a <= 1.0 or not 0.0 <= p_vac_b <= 1.0:
        raise ValueError("vacuum probabilities must lie in [0, 1]")
    return max(0.0, 2.0 * math.sqrt(p_vac_a * p_vac_b) - 1.0)


@dataclass(frozen=True)
class SourceCharacterization:
    """What is assumed about the correlated source.

    Attributes
    ----------
    corr_len : int
        Number of subsequent pulses a bit can influence (0 = uncorrelated).
    eps : tuple of float
        Fidelity deficits per lag; ``eps[d-1]`` bounds how far from 1 the
        overlap squared may fall between emitted states that differ only in
        the bit encoded d pulses earlier.
    p_vac0, p_vac1 : float
        Lower bounds on the vacuum probability of pulses encoding bit 0 and
        bit 1, uniform over histories.
    """

    corr_len: int
    eps: tuple[float, ...]
    p_vac0: float
    p_vac1: float

    def __post_init__(self) -> None:
        _require_integer("corr_len", self.corr_len)
        if self.corr_len < 0:
            raise ValueError(f"correlation length must be >= 0, got {self.corr_len}")
        object.__setattr__(self, "eps", tuple(float(e) for e in self.eps))
        if len(self.eps) != self.corr_len:
            raise ValueError(
                f"need one fidelity deficit per lag: expected {self.corr_len}, "
                f"got {len(self.eps)}"
            )
        for d, e in enumerate(self.eps, start=1):
            if not 0.0 <= e <= 1.0:
                raise ValueError(f"fidelity deficit at lag {d} outside [0, 1]: {e}")
        for name in ("p_vac0", "p_vac1"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")


def plus_vac_floor(source: SourceCharacterization) -> float:
    """Floor on P(plus, vacuum): ``(sqrt(p_vac0) + sqrt(p_vac1))^2 / 4``."""
    root_sum = math.sqrt(source.p_vac0) + math.sqrt(source.p_vac1)
    return root_sum * root_sum / 4.0


def minus_ref_bound(source: SourceCharacterization) -> float:
    """Cap on the minus-outcome probability of the reference state.

    A minus outcome excludes plus with vacuum: ``1 - plus_vac_floor``.
    """
    return 1.0 - plus_vac_floor(source)


def a1_floor(source: SourceCharacterization) -> float:
    """Floor on the overlap of the bit-0 and bit-1 tails of later pulses.

    ``prod_d sqrt(1 - eps_d)``, which is 1 without correlations.
    """
    prod = 1.0
    for e in source.eps:
        prod *= math.sqrt(1.0 - e)
    return prod


def fidelity_bound(source: SourceCharacterization) -> float:
    """Floor on the overlap between actual and reference states.

    ``(1 + a1_floor(source)) / 2``; exactly 1 when there are no
    correlations to wash out.
    """
    return (1.0 + a1_floor(source)) / 2.0


@dataclass(frozen=True)
class SecurityBounds:
    """The bound values the key-rate formula consumes.

    ``minus_act`` transfers the reference cap through the fidelity floor
    (:func:`transfer_bound`; the trivial 1 when ``minus_ref > fidelity^2``),
    so it cannot disagree with the other two fields.
    """

    minus_ref: float
    fidelity: float

    def __post_init__(self) -> None:
        for name in ("minus_ref", "fidelity"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")

    @property
    def minus_act(self) -> float:
        return transfer_bound(self.minus_ref, self.fidelity)

    @classmethod
    def from_source(cls, source: SourceCharacterization) -> "SecurityBounds":
        return cls(minus_ref=minus_ref_bound(source), fidelity=fidelity_bound(source))


def _require_integer(name: str, value) -> None:
    # bool is an int subclass, but True is no group size.
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class ProtocolConfig:
    """Protocol-level parameters.

    A block consists of ``(corr_len + 1) * group_size`` pulses, split into
    ``corr_len + 1`` interleaved groups so that the pulses within one group
    are spaced far enough apart to be free of mutual correlations.
    """

    group_size: int
    corr_len: int
    e_bit: float
    f_ec_mode: str = "shannon"
    f_ec_fixed: Optional[float] = None

    def __post_init__(self) -> None:
        _require_integer("group_size", self.group_size)
        _require_integer("corr_len", self.corr_len)
        if self.group_size < 3:
            raise ValueError(f"group size must be >= 3, got {self.group_size}")
        if self.corr_len < 0:
            raise ValueError(f"correlation length must be >= 0, got {self.corr_len}")
        if not 0.0 <= self.e_bit <= 0.5:
            raise ValueError(f"bit error rate must lie in [0, 0.5], got {self.e_bit}")
        if self.f_ec_mode not in ("shannon", "fixed"):
            raise ValueError(
                f"f_ec_mode must be 'shannon' or 'fixed', got {self.f_ec_mode!r}"
            )
        if self.f_ec_mode == "fixed":
            if self.f_ec_fixed is None or not self.f_ec_fixed >= 0.0:
                raise ValueError("fixed error-correction mode needs f_ec_fixed >= 0")
        elif self.f_ec_fixed is not None:
            raise ValueError("f_ec_fixed only applies when f_ec_mode='fixed'")

    @property
    def block_size(self) -> int:
        return (self.corr_len + 1) * self.group_size

    @property
    def n_groups(self) -> int:
        return self.corr_len + 1

    def f_ec(self) -> float:
        if self.f_ec_mode == "fixed":
            return float(self.f_ec_fixed)  # type: ignore[arg-type]
        return binary_entropy(self.e_bit)


def phase_error_upper(group_size: int, minus_act: float, q: float) -> float:
    """Upper bound on the phase-error rate of one group.

    Averages, over the possible numbers of tagged rounds s, the probability
    that a group of ``group_size`` pulses sees more than s minus outcomes
    (each capped by ``minus_act``), normalized by the detection rate ``q``
    and clamped at 1 term by term.  All n - 1 tails come from one
    binomial tail row (see :func:`binomial_tail`), so a call costs O(n)
    vector work; the clamped terms are summed exactly with ``math.fsum``.

    Parameters
    ----------
    group_size : int
        Pulses per group, at least 3.
    minus_act : float
        Per-pulse cap on the minus-outcome probability, in [0, 1].
    q : float
        Detection rate of the group, in (0, 1].  A rate of exactly 0 leaves
        the bound undefined; callers must skip such groups.
    """
    if group_size < 3:
        raise ValueError(f"group size must be >= 3, got {group_size}")
    if not 0.0 <= minus_act <= 1.0:
        raise ValueError(f"minus_act must lie in [0, 1], got {minus_act}")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"detection rate must lie in (0, 1], got {q}")
    n = group_size
    # Capping the tail at q before dividing gives the same bits as capping
    # the ratio at 1, but cannot overflow when q is subnormal.
    terms = np.minimum(_tail_row(n, minus_act)[: n - 1], q) / q
    return math.fsum(terms.tolist()) / (n - 1)


def pa_fraction(e_ph_upper: float) -> float:
    """Fraction of the sifted key consumed by privacy amplification."""
    return binary_entropy(e_ph_upper)


@dataclass(frozen=True)
class GroupRate:
    """Per-group observables entering the key-rate sum."""

    q: float
    e_ph_upper: float
    f_pa: float


@dataclass(frozen=True)
class KeyRateResult:
    per_group: tuple[GroupRate, ...]
    f_ec: float
    rate_per_pulse: float


def key_rate(
    cfg: ProtocolConfig, bounds: SecurityBounds, q_list: Sequence[float]
) -> KeyRateResult:
    """Secure key rate per emitted pulse.

    Sums ``q_w * (1 - f_ec - f_pa_w)`` over the groups and divides by the
    block size; a negative total clamps to zero rather than erroring.
    Groups with ``q_w = 0`` contribute nothing and skip the phase-error
    evaluation (their per-group record conservatively carries the trivial
    bound 1).  The bound depends on a group only through ``q_w``, so it is
    evaluated once per distinct detection rate and shared by the groups
    that have it.

    Parameters
    ----------
    cfg : ProtocolConfig
    bounds : SecurityBounds
        Source-side bounds; only ``minus_act`` enters the phase-error tail.
    q_list : sequence of float
        Detection rate per group; must have ``corr_len + 1`` entries.
    """
    if len(q_list) != cfg.n_groups:
        raise ValueError(
            f"need one detection rate per group: expected {cfg.n_groups}, "
            f"got {len(q_list)}"
        )
    f_ec = cfg.f_ec()
    by_q: dict[float, GroupRate] = {}
    for q in q_list:
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"detection rate must lie in [0, 1], got {q}")
        if q == 0.0:
            by_q[q] = GroupRate(q=0.0, e_ph_upper=1.0, f_pa=1.0)
        elif q not in by_q:
            e_ph = phase_error_upper(cfg.group_size, bounds.minus_act, q)
            by_q[q] = GroupRate(q=q, e_ph_upper=e_ph, f_pa=pa_fraction(e_ph))
    per_group = tuple(by_q[q] for q in q_list)
    total = 0.0
    for g in per_group:
        if g.q > 0.0:
            total += g.q * (1.0 - f_ec - g.f_pa)
    rate = max(0.0, total) / cfg.block_size
    return KeyRateResult(per_group=per_group, f_ec=f_ec, rate_per_pulse=rate)
