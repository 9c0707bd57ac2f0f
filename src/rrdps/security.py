"""Security bounds and key-rate evaluation for round-robin DPS QKD with
correlated pulse sources.

The emitted pulses may carry correlations: the bit encoded in one pulse can
leak into the states of up to ``corr_len`` subsequent pulses.  The functions
here turn a characterization of that leakage (fidelity deficits per lag and
vacuum-probability floors) into an upper bound on the phase-error rate and a
secure key rate per pulse.

Everything in this module is a pure function of its arguments and safe for
concurrent use.  Public functions and constructors check their arguments,
and underscored helpers trust them.  Every public function and constructor
here and in :mod:`rrdps.sources` takes one number per argument
(``_require``) and rejects an array.

A ``SourceCharacterization`` derives every source-side bound the rate and
the oracle read once, when it is built.  The private steps ``_derive``,
``_tail_row``, ``_phase_errors``, ``_group_rate`` and ``_pulse_rate`` also
take equal-length 1-D arrays in place of floats, one entry per source: the
mu grid of :func:`rrdps.sources.optimize_mu` and a chunk of oracle trials
run them on a batch.  A batch runs its arithmetic on numpy, which rounds
exactly as float arithmetic does, but makes every libm call and every
branch entry by entry (``_each``), so that each entry is bitwise equal to
a one-point call; only the square root, which IEEE 754 rounds correctly,
runs on the whole array.  Most of a one-point rate's cost is Python and
numpy call overhead, which a batch pays once per array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import repeat
from typing import Optional, Sequence

import numpy as np


def _each(f, x, *more):
    """``f`` of floats, or, when ``x`` is a 1-D array, of each entry of it
    and the matching entries of the other arguments, in order; every other
    argument is then a float or an array of x's shape.

    numpy's SIMD ``exp``, ``expm1`` and ``log`` may round the last bit
    differently from libm, and a branch cannot run on an array, so a batch
    calls the scalar function once per entry.
    """
    if not isinstance(x, np.ndarray):
        return f(x, *more)
    columns = (a.tolist() if isinstance(a, np.ndarray) else repeat(a) for a in more)
    return np.array(list(map(f, x.tolist(), *columns)), dtype=float)


_BOOLS = (bool, np.bool_)


def _require(value, message: str, low: float = 0.0, high: float = 1.0) -> None:
    """Raise ``ValueError(message.format(v))`` unless ``value`` is a number
    in ``[low, high]``: v is the value, or names an array's shape.  NaN is
    outside, and so is every bool (Python's or numpy's), which is no number
    of this package."""
    if isinstance(value, np.ndarray):
        raise ValueError(message.format(f"an array of shape {value.shape}"))
    if isinstance(value, _BOOLS) or not low <= value <= high:
        raise ValueError(message.format(value))


def _require_integer(name: str, value, low: int, high=None) -> None:
    """Raise a ``ValueError`` naming ``name`` unless ``value`` is an integer,
    not a bool, at least ``low`` and, given ``high``, in ``[low, high]``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if high is not None and not low <= value <= high:
        raise ValueError(f"{name} must lie in [{low}, {high}], got {value}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")


# v >= _TINIEST exactly when v > 0, and v <= _LARGEST exactly when v < inf,
# so open ends need no variant of _require.
_TINIEST = math.ulp(0.0)
_LARGEST = math.nextafter(math.inf, 0.0)


def binary_entropy(x: float) -> float:
    """Binary entropy in bits, with the convention used for privacy terms.

    Returns ``-x*log2(x) - (1-x)*log2(1-x)`` for ``x`` in [0, 0.5] (with
    the limit value 0 at x = 0) and returns 1.0 for any ``x`` above 0.5,
    so the privacy-amplification cost never decreases past the midpoint.
    """
    _require(x, "entropy argument must lie in [0, 1], got {}")
    return _entropy(x)


def _entropy(x: float) -> float:
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
    _require(x, "probability bound must lie in [0, 1], got {}")
    _require(y, "overlap bound must lie in [0, 1], got {}")
    return _transfer(x, y)


def _transfer(x: float, y: float) -> float:
    if x > y * y:
        return 1.0
    comp = 1.0 - y * y
    return x + comp * (1.0 - 2.0 * x) + 2.0 * y * math.sqrt(comp * x * (1.0 - x))


@lru_cache(maxsize=512)
def _log_binom_row(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # log C(n, y) for y = 0..n, and the counts y and n - y as floats; all
    # three read-only, as every tail row of n shares them.
    lg_n = math.lgamma(n + 1)
    y = np.arange(n + 1.0)
    row = np.array(
        [lg_n - math.lgamma(k + 1) - math.lgamma(n - k + 1) for k in range(n + 1)]
    )
    constants = row, y, n - y
    for array in constants:
        array.flags.writeable = False
    return constants


def _tail_row(n: int, p) -> np.ndarray:
    # P[Y > s] for s = 0..n-1, one row per entry when p is a 1-D array: the
    # pmf from the log-binomial row, summed from the top down, so each tail
    # adds its smallest terms first.
    row, y, n_y = _log_binom_row(n)
    log_p, log_1mp = _each(_log_p, p), _each(_log_1mp, p)
    if isinstance(p, np.ndarray):
        log_p, log_1mp = log_p[:, None], log_1mp[:, None]
    pmf = np.exp(row + log_p * y + log_1mp * n_y)
    # Rounding can push a full tail a hair past 1.
    return np.minimum(pmf[..., ::-1].cumsum(axis=-1)[..., -2::-1], 1.0)


# Stands in for log 0 = -inf: y * _LOG_ZERO stays finite for any count y
# below 1e8, and its exp is exactly 0, so at p = 0 and p = 1 the pmf is
# exactly one 1 and zeros, and every tail exactly 0 or 1, without a log or
# NaN warning.
_LOG_ZERO = -1e300


def _log_p(p: float) -> float:
    return math.log(p) if p > 0.0 else _LOG_ZERO


def _log_1mp(p: float) -> float:
    return math.log1p(-p) if p < 1.0 else _LOG_ZERO


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
    _require_integer("n", n, 1)
    _require_integer("s", s, 0, n - 1)
    _require(p, "success probability must lie in [0, 1], got {}")
    return float(_tail_row(n, p)[s])


def vacuum_fidelity_bound(p_vac_a: float, p_vac_b: float) -> float:
    """Overlap floor between two states given only vacuum-probability floors.

    Two normalized states whose vacuum probabilities are at least
    ``p_vac_a`` and ``p_vac_b`` overlap in magnitude by at least
    ``2*sqrt(p_vac_a*p_vac_b) - 1``; the bound degrades to the trivial 0
    when the vacuum weights are too small to constrain anything.
    """
    _require(p_vac_a, "p_vac_a must lie in [0, 1], got {}")
    _require(p_vac_b, "p_vac_b must lie in [0, 1], got {}")
    return _vacuum_overlap_floor(p_vac_a, p_vac_b)


def _vacuum_overlap_floor(p_vac_a: float, p_vac_b: float) -> float:
    return max(0.0, 2.0 * math.sqrt(p_vac_a * p_vac_b) - 1.0)


@dataclass(frozen=True)
class SourceCharacterization:
    """What is assumed about the correlated source.

    Attributes
    ----------
    eps : tuple of float
        Fidelity deficits per lag; ``eps[d-1]`` bounds how far from 1 the
        overlap squared may fall between emitted states that differ only in
        the bit encoded d pulses earlier.
    p_vac0, p_vac1 : float
        Lower bounds on the vacuum probability of pulses encoding bit 0 and
        bit 1, uniform over histories.
    corr_len : int
        ``len(eps)``, the number of later pulses a bit can influence (0 = none).

    After its checks it derives, once, the bounds that the rate and the
    oracle read (left out of ``==`` and ``repr``, and derived again by
    ``dataclasses.replace``): the floor on P(plus, vacuum) ``plus_vac_floor
    = (sqrt(p_vac0) + sqrt(p_vac1))^2 / 4``; the floor on the overlap of the
    bit-0 and bit-1 tails of later pulses ``a1_floor = prod_d sqrt(1 -
    eps_d)``; the reference state's minus-outcome cap ``minus_ref = 1 -
    plus_vac_floor``, since a minus outcome excludes plus with vacuum; the
    actual-to-reference overlap floor ``fidelity = (1 + a1_floor) / 2``,
    exactly 1 without correlations; and ``minus_act``,
    ``minus_ref`` transferred through ``fidelity`` (:func:`transfer_bound`;
    the trivial 1 when ``minus_ref > fidelity^2``), the only one the rate's
    phase-error tail reads.
    """

    eps: tuple[float, ...]
    p_vac0: float
    p_vac1: float
    plus_vac_floor: float = field(init=False, repr=False, compare=False)
    a1_floor: float = field(init=False, repr=False, compare=False)
    minus_ref: float = field(init=False, repr=False, compare=False)
    fidelity: float = field(init=False, repr=False, compare=False)
    minus_act: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        eps = tuple(self.eps)
        for d, e in enumerate(eps, start=1):
            _require(e, f"eps at lag {d} must lie in [0, 1], got {{}}")
        _require(self.p_vac0, "p_vac0 must lie in [0, 1], got {}")
        _require(self.p_vac1, "p_vac1 must lie in [0, 1], got {}")
        eps = tuple(map(float, eps))
        # The record is frozen, so its fields are set past __setattr__.
        vars(self).update(eps=eps, **_derive(eps, self.p_vac0, self.p_vac1))

    @property
    def corr_len(self) -> int:
        return len(self.eps)


def _derive(eps, p_vac0, p_vac1) -> dict:
    # SourceCharacterization's derived bounds by field name, from checked
    # deficits and floors: floats, or a batch's equal-length 1-D arrays.
    # IEEE 754 rounds a square root correctly, so numpy's is bitwise
    # math.sqrt and needs no _each.
    batch = isinstance(p_vac0, np.ndarray)
    sqrt = np.sqrt if batch else math.sqrt
    root_sum = sqrt(p_vac0) + sqrt(p_vac1)
    plus_vac = root_sum * root_sum / 4.0
    a1 = np.ones_like(p_vac0) if batch else 1.0
    for e in eps:
        a1 = a1 * sqrt(1.0 - e)
    minus_ref, fidelity = 1.0 - plus_vac, (1.0 + a1) / 2.0
    minus_act = _each(_transfer, minus_ref, fidelity)
    return dict(
        plus_vac_floor=plus_vac, a1_floor=a1, minus_ref=minus_ref,
        fidelity=fidelity, minus_act=minus_act,
    )


@dataclass(frozen=True)
class ProtocolConfig:
    """Protocol-level parameters.

    A block consists of ``(corr_len + 1) * group_size`` pulses, split into
    ``corr_len + 1`` interleaved groups so that the pulses within one group
    are spaced far enough apart to be free of mutual correlations.  Error
    correction costs ``f_ec_fixed`` per sifted bit, or, when that is None,
    the Shannon limit: the binary entropy of the bit error rate.
    """

    group_size: int
    corr_len: int
    e_bit: float
    f_ec_fixed: Optional[float] = None

    def __post_init__(self) -> None:
        _require_integer("group_size", self.group_size, 3)
        _require_integer("corr_len", self.corr_len, 0)
        _require(self.e_bit, "bit error rate must lie in [0, 0.5], got {}", high=0.5)
        if self.f_ec_fixed is not None:
            message = "f_ec_fixed must be a finite number >= 0, got {}"
            _require(self.f_ec_fixed, message, high=_LARGEST)

    @property
    def block_size(self) -> int:
        return (self.corr_len + 1) * self.group_size

    @property
    def n_groups(self) -> int:
        return self.corr_len + 1

    def f_ec(self, e_bit: Optional[float] = None) -> float:
        """Error-correction cost per sifted bit; ``e_bit`` defaults to the config's."""
        if self.f_ec_fixed is not None:
            return float(self.f_ec_fixed)
        # The configured rate needs no check: __post_init__ has made it.
        return _entropy(self.e_bit) if e_bit is None else binary_entropy(e_bit)


def phase_error_upper(group_size: int, minus_act: float, q: float) -> float:
    """Upper bound on the phase-error rate of one group.

    Averages, over the possible numbers of tagged rounds s, the probability
    that a group of ``group_size`` pulses sees more than s minus outcomes
    (each capped by ``minus_act``), normalized by the detection rate ``q``
    and clamped at 1 term by term.  All n - 1 tails come from one
    binomial tail row (see :func:`binomial_tail`), so a call costs O(n)
    vector work; the clamped terms are summed exactly with ``math.fsum``.
    The grid pass of ``optimize_mu`` runs the same code on arrays, one
    bound per mu.

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
    _require_integer("group_size", group_size, 3)
    _require(minus_act, "minus_act must lie in [0, 1], got {}")
    _require(q, "detection rate must lie in (0, 1], got {}", low=_TINIEST)
    return _phase_errors(group_size, minus_act, q)[0]


def _phase_errors(group_size: int, minus_act, q) -> list[float]:
    # phase_error_upper at floats, or at each entry of 1-D arrays: one
    # entry per tail row.
    n = group_size
    # Capping the tail at q before dividing gives the same bits as capping
    # the ratio at 1, but cannot overflow when q is subnormal.  A batch's q
    # is a column, one entry per tail row.
    if isinstance(q, np.ndarray):
        q = q[:, None]
    terms = np.minimum(_tail_row(n, minus_act)[..., : n - 1], q) / q
    return [math.fsum(row) / (n - 1) for row in terms.reshape(-1, n - 1).tolist()]


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
    cfg: ProtocolConfig, source: SourceCharacterization, q_list: Sequence[float]
) -> KeyRateResult:
    """Secure key rate per emitted pulse.

    Averages ``q_w * (1 - f_ec - f_pa_w)`` over the groups and divides by
    the group size; a negative average clamps to zero rather than erroring.
    Groups with ``q_w = 0`` contribute nothing and skip the phase-error
    evaluation (their per-group record conservatively carries the trivial
    bound 1, so ``f_pa_w = 1``).  The bound depends on a group only through
    ``q_w``, so it is evaluated once per distinct detection rate, and its
    term is weighted by the share of groups that have it: exactly 1 when
    all are equal, so no rounded sum lets a longer memory rate higher.

    Parameters
    ----------
    cfg : ProtocolConfig
    source : SourceCharacterization
        Only its derived ``minus_act`` enters the phase-error tail.  Its
        memory may not be longer than ``cfg.corr_len``, which the groups'
        interleaving covers; a shorter one is conservative.
    q_list : sequence of float
        Detection rate per group, in [0, 1]; must have ``corr_len + 1``
        entries.
    """
    if len(q_list) != cfg.n_groups:
        raise ValueError(
            f"need one detection rate per group: expected {cfg.n_groups}, "
            f"got {len(q_list)}"
        )
    _require_covered(cfg, source)
    qs = list(q_list)
    for q in qs:
        _require(q, "detection rate must lie in [0, 1], got {}")
    f_ec, n = cfg.f_ec(), cfg.group_size
    by_q = {q: _group_rate(n, source.minus_act, q) for q in dict.fromkeys(qs)}
    shares = [(qs.count(q) / cfg.n_groups, g) for q, g in by_q.items()]
    return KeyRateResult(tuple(by_q[q] for q in qs), f_ec, _pulse_rate(n, f_ec, shares))


def _require_covered(cfg: ProtocolConfig, source: SourceCharacterization) -> None:
    # Reject a source whose memory outlasts the groups' interleaving.
    if source.corr_len > cfg.corr_len:
        raise ValueError(
            f"source corr_len {source.corr_len} exceeds the protocol's "
            f"corr_len {cfg.corr_len}, which its groups' interleaving covers"
        )


def _pulse_rate(group_size: int, f_ec: float, shares) -> float:
    # key_rate's rate per pulse from (share of the groups, GroupRate) pairs.
    total = 0.0
    for share, g in shares:
        # Groups without detections, with q = 0 and a finite f_ec, add an
        # exact zero, so the sum skips them as if they were left out.
        total = total + share * (g.q * (1.0 - f_ec - g.f_pa))
    return _each(_clamped, total) / group_size


def _group_rate(group_size: int, minus_act, q) -> GroupRate:
    # One group at detection rate q, a float or a batch's 1-D array shaped
    # as minus_act; the caller has checked all three.  Where q = 0 the bound
    # is skipped for the trivial e_ph = 1; adding 0.0 records a q of -0.0
    # as 0.0.
    if not isinstance(q, np.ndarray):
        e_ph = _phase_errors(group_size, minus_act, q)[0] if q > 0.0 else 1.0
    else:
        live = q > 0.0
        e_ph = np.ones(len(q))
        e_ph[live] = _phase_errors(group_size, minus_act[live], q[live])
    return GroupRate(q=q + 0.0, e_ph_upper=e_ph, f_pa=_each(_entropy, e_ph))


def _clamped(total: float) -> float:
    return max(0.0, total)
