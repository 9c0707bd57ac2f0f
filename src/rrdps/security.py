"""Security bounds and key-rate evaluation for round-robin DPS QKD with
correlated pulse sources.

The emitted pulses may carry correlations: the bit encoded in one pulse can
leak into the states of up to ``corr_len`` subsequent pulses.  The functions
here turn a characterization of that leakage (fidelity deficits per lag and
vacuum-probability floors) into an upper bound on the phase-error rate and a
secure key rate per pulse.

Everything in this module is a pure function of its arguments and safe for
concurrent use.  Public functions and constructors check their arguments,
and underscored helpers trust them.  Only the batch entry points,
``SourceCharacterization`` and ``key_rate`` here and ``PhaseRotationModel``,
``characterize``, ``detection_rate`` and ``rate_at_mu`` in
:mod:`rrdps.sources`, take a 1-D array (``_require_batch``); every other
public function takes one number (``_require``) and rejects an array.

A ``SourceCharacterization`` derives every source-side bound the rate and
the oracle read once, when it is built.  Its deficits and floors may be
equal-length 1-D arrays in place of floats, one entry per source; given
such a batch and array detection rates, ``key_rate`` evaluates the rate of
every entry at once.  A batch runs its arithmetic on numpy, which rounds
exactly as float arithmetic does, but makes every libm call and every
branch entry by entry (``_each``), so that each entry is bitwise equal to
a one-point call.  A one-point rate costs some tens of microseconds, most
of it Python and numpy call overhead that a batch pays once per array.
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


def _require_batch(value, message: str, low: float = 0.0, high: float = 1.0) -> None:
    """``_require``, or, for a batch's 1-D array, the same check of each
    entry, naming the first one outside; a bool array's entries all are."""
    if isinstance(value, np.ndarray) and value.ndim == 1:
        inside = (low <= value) & (value <= high) & (value.dtype != bool)
        if not inside.all():
            raise ValueError(message.format(value[np.argmin(inside)].item()))
    else:
        _require(value, message, low, high)


def _require_integer(name: str, value, low: int, high=None) -> None:
    """Raise a ``ValueError`` naming ``name`` unless ``value`` is an integer,
    not a bool, at least ``low`` and, given ``high``, in ``[low, high]``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if high is not None and not low <= value <= high:
        raise ValueError(f"{name} must lie in [{low}, {high}], got {value}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")


def _require_one_shape(fields: dict) -> None:
    """Raise a ``ValueError`` naming two fields whose values differ in shape,
    a float's shape being ()."""
    shapes = [getattr(v, "shape", ()) for v in fields.values()]
    if shapes.count(shapes[0]) < len(shapes):
        (first, want), *rest = zip(fields, shapes)
        name, shape = next(pair for pair in rest if pair[1] != want)
        message = f"{name} of shape {shape} does not match {first} of shape {want}"
        raise ValueError(message)


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
def _log_binom_row(n: int) -> np.ndarray:
    lg_n = math.lgamma(n + 1)
    row = np.array(
        [lg_n - math.lgamma(y + 1) - math.lgamma(n - y + 1) for y in range(n + 1)]
    )
    row.flags.writeable = False
    return row


def _tail_row(n: int, p) -> np.ndarray:
    # P[Y > s] for s = 0..n-1, one row per entry when p is a 1-D array: the
    # pmf from the log-binomial row, summed from the top down, so each tail
    # adds its smallest terms first.
    y = np.arange(n + 1)
    log_pmf = _log_binom_row(n) + np.multiply.outer(_each(_log_p, p), y)
    pmf = np.exp(log_pmf + np.multiply.outer(_each(_log_1mp, p), n - y))
    # Rounding can push a full tail a hair past 1.
    return np.minimum(np.cumsum(pmf[..., ::-1], axis=-1)[..., -2::-1], 1.0)


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

    Each deficit and floor may instead be a 1-D array of one shape, one
    entry per source of a batch, each checked as a float would be.

    After its checks it derives, once, the bounds that the rate and the
    oracle read (arrays for a batch; left out of ``==`` and ``repr``, and
    derived again by ``dataclasses.replace``): the floor on P(plus, vacuum)
    ``plus_vac_floor = (sqrt(p_vac0) + sqrt(p_vac1))^2 / 4``; the floor on
    the overlap of the bit-0 and bit-1 tails of later pulses ``a1_floor =
    prod_d sqrt(1 - eps_d)``; the reference state's minus-outcome cap
    ``minus_ref = 1 - plus_vac_floor``, since a minus outcome excludes plus
    with vacuum; the actual-to-reference overlap floor ``fidelity = (1 +
    a1_floor) / 2``, exactly 1 without correlations; and ``minus_act``,
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
        fields = {f"eps at lag {d}": e for d, e in enumerate(eps, start=1)}
        fields.update(p_vac0=self.p_vac0, p_vac1=self.p_vac1)
        for name, value in fields.items():
            _require_batch(value, f"{name} must lie in [0, 1], got {{}}")
        _require_one_shape(fields)
        eps = tuple(_each(float, e) for e in eps)
        root_sum = _each(math.sqrt, self.p_vac0) + _each(math.sqrt, self.p_vac1)
        plus_vac = root_sum * root_sum / 4.0
        a1 = np.ones_like(self.p_vac0) if isinstance(self.p_vac0, np.ndarray) else 1.0
        for e in eps:
            a1 = a1 * _each(math.sqrt, 1.0 - e)
        minus_ref, fidelity = 1.0 - plus_vac, (1.0 + a1) / 2.0
        # The record is frozen, so its fields are set past __setattr__.
        vars(self).update(
            eps=eps, plus_vac_floor=plus_vac, a1_floor=a1, minus_ref=minus_ref,
            fidelity=fidelity, minus_act=_each(_transfer, minus_ref, fidelity),
        )

    @property
    def corr_len(self) -> int:
        return len(self.eps)


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
    # the ratio at 1, but cannot overflow when q is subnormal.  Transposed,
    # a batch's rows run along the last axis, as its q does.
    tails = _tail_row(n, minus_act)[..., : n - 1].T
    terms = (np.minimum(tails, q) / q).T
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

    Sums ``q_w * (1 - f_ec - f_pa_w)`` over the groups and divides by the
    block size; a negative total clamps to zero rather than erroring.
    Groups with ``q_w = 0`` contribute nothing and skip the phase-error
    evaluation (their per-group record conservatively carries the trivial
    bound 1, so ``f_pa_w = 1``).  The bound depends on a group only through
    ``q_w``, so it is evaluated once per distinct detection rate and shared
    by the groups that have it.

    The batch form prices many sources at once: ``source`` a batch, and
    each group's rate a 1-D array with one entry per source.  Every number
    of the result is then such an array, and each entry is bitwise equal to
    the one-point rate of its source; a caller that needs one source's
    ``KeyRateResult`` prices that source alone.  An array is evaluated once
    per object, so passing the same array for every group builds each
    source's tail row once.

    Parameters
    ----------
    cfg : ProtocolConfig
    source : SourceCharacterization
        Only its derived ``minus_act`` enters the phase-error tail.
    q_list : sequence of float or of 1-D arrays
        Detection rate per group; must have ``corr_len + 1`` entries, each
        shaped as the fields of ``source``.
    """
    if len(q_list) != cfg.n_groups:
        raise ValueError(
            f"need one detection rate per group: expected {cfg.n_groups}, "
            f"got {len(q_list)}"
        )
    f_ec = cfg.f_ec()
    by_q: dict = {}
    per_group = []
    total = 0.0
    for q in q_list:
        # An array is keyed by identity, a float by value.
        key = (id(q),) if isinstance(q, np.ndarray) else q
        if key not in by_q:
            _require_batch(q, "detection rate must lie in [0, 1], got {}")
            _require_one_shape({"source": source.minus_act, "detection rate": q})
            by_q[key] = _group_rate(cfg.group_size, source.minus_act, q)
        g = by_q[key]
        per_group.append(g)
        # A group without detections, with q = 0 and a finite f_ec, adds an
        # exact zero, so the sum skips it as if it were left out.
        total = total + g.q * (1.0 - f_ec - g.f_pa)
    rate = _each(_clamped, total) / cfg.block_size
    return KeyRateResult(per_group=tuple(per_group), f_ec=f_ec, rate_per_pulse=rate)


def _group_rate(group_size: int, minus_act, q) -> GroupRate:
    # One group at detection rate q, a float or a batch's 1-D array shaped
    # as minus_act.  Where q = 0 the bound is skipped for the trivial
    # e_ph = 1; adding 0.0 records a q of -0.0 as 0.0.
    if not isinstance(q, np.ndarray):
        e_ph = phase_error_upper(group_size, minus_act, q) if q > 0.0 else 1.0
    else:
        live = q > 0.0
        e_ph = np.ones(len(q))
        e_ph[live] = _phase_errors(group_size, minus_act[live], q[live])
    return GroupRate(q=q + 0.0, e_ph_upper=e_ph, f_pa=_each(_entropy, e_ph))


def _clamped(total: float) -> float:
    return max(0.0, total)
