"""Exact small-system verification of the security-bound derivation.

Every inequality the analytic bounds rest on is checked, with explicit
tolerances, against randomized and coherent source families.  The state
of the encoding step is one ancilla qubit plus one truncated Fock mode per
pulse; conditioned on the bits before the analyzed pulse t, its block of
pulses t..n is ``(|0> b0 T0 + |1> b1 T1) / sqrt(2)``, with b0, b1 the
pulse-t states and T0, T1 the tails of later pulses under each value of
bit t.  Every quantity of the proof chain is a closed form in b0, b1 and
the tail overlap ``<T0|T1>``, which the check computes from per-pulse
overlaps without building a state: its cost grows as 2**corr_len and does
not depend on the pulse count.

A family stores one array of states per pulse (see ``EmissionFamily``).
Viewed with one axis per bit, the bit at lag d is axis d, so every overlap
the check and the measured characterization need is taken across one axis.

Checks are evaluated on the phase-canonical form of the states: each
emitted state is only defined up to a global phase, and the bounds hold
for the purification in which the vacuum amplitude of the analyzed pulse
is real nonnegative and each later pulse's bit-1 variant is phase aligned
with its bit-0 partner.  The analyzed pulse is rotated explicitly, and
the window overlaps enter the tail overlap by their moduli, which is
what the alignment makes them; so the stored family vectors may carry
arbitrary phases, and the tail overlap is real and nonnegative.

No state vector larger than one pulse is ever formed.  A randomized
campaign caps the tables instead: the largest family its arguments allow
must fit ``_TABLE_BUDGET`` (2**21) amplitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .security import (
    SecurityBounds,
    SourceCharacterization,
    _LARGEST,
    _require,
    _require_integer,
    _transfer,
    a1_floor,
    fidelity_bound,
    minus_ref_bound,
    plus_vac_floor,
    vacuum_fidelity_bound,
)
from .sources import PhaseRotationModel

# Most amplitudes the tables of a campaign's largest family may hold.
_TABLE_BUDGET = 2**21
# A campaign draws corr_len up to this, and up to its last pulse's window.
_DRAWN_CORR_LEN = 2
# Tolerance of every proof-chain inequality, and of the vacuum-overlap
# floor on random state pairs.
CHECK_TOL = 1e-9
FIDELITY_TOL = 1e-12


def _window(corr_len: int, k: int) -> int:
    """How many history bits the state of pulse k may depend on."""
    return min(corr_len, k - 1)


@dataclass(frozen=True)
class EmissionFamily:
    """Table of emitted states for a short pulse train.

    ``tables[k-1]`` holds the unit vectors of Fock amplitudes of pulse k
    in an array of shape ``(2, 2**w, fock_dim)`` with ``w = min(corr_len,
    k-1)``: the first index is the encoded bit, the second the history,
    the previous w bits read most recent first as a binary number, so the
    most recent bit is the most significant.  Older bits never index a
    table, which is exactly the bounded-range correlation assumption.
    ``n_pulses`` and ``fock_dim`` are read off the tables.
    """

    corr_len: int
    tables: Sequence[np.ndarray]
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "tables", tuple(np.asarray(t, dtype=complex) for t in self.tables)
        )
        _require_integer("corr_len", self.corr_len, 0)
        # A bit must be able to reach corr_len later pulses.
        _require_integer("n_pulses", self.n_pulses, self.corr_len + 1)
        _require_integer("fock_dim", self.fock_dim, 2)
        for k, table in enumerate(self.tables, start=1):
            shape = (2, 2 ** _window(self.corr_len, k), self.fock_dim)
            if table.shape != shape:
                raise ValueError(f"pulse {k} table has shape {table.shape}, not {shape}")
            if not np.all(np.abs(_norms(table) - 1.0) <= 1e-12):
                raise ValueError(f"pulse {k} holds a state that is not normalized")

    @property
    def n_pulses(self) -> int:
        return len(self.tables)

    @property
    def fock_dim(self) -> int:
        return self.tables[0].shape[-1]

    def _bit_axes(self, k: int) -> np.ndarray:
        # Pulse k's table with one axis per bit: axis 0 the encoded bit,
        # axis d the bit d pulses earlier, the last axis the amplitudes.
        return self.tables[k - 1].reshape((2,) * (_window(self.corr_len, k) + 1) + (-1,))

    def pulse_state(self, k: int, bit: int, history: Sequence[int]) -> np.ndarray:
        """Stored vector for pulse k; ``history`` may be longer than the
        window and is trimmed to the bits that actually matter."""
        _require_integer("k", k, 1, self.n_pulses)
        w = _window(self.corr_len, k)
        if len(history) < w:
            raise ValueError(f"pulse {k} needs {w} history bits, got {len(history)}")
        bits = (bit, *history[:w])
        if any(b not in (0, 1) for b in bits):
            raise ValueError(f"bit and history bits must be 0 or 1, got {bits}")
        # int(): a bool in an index tuple would act as a mask.
        return self._bit_axes(k)[tuple(int(b) for b in bits)]


def _norms(v: np.ndarray) -> np.ndarray:
    # Norms of the vectors along the last axis, each bitwise equal to
    # np.linalg.norm of the vector: the same two real dot products.
    re, im = v.real[..., None, :], v.imag[..., None, :]
    return np.sqrt((re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[..., 0, 0])


def _normalized(v: np.ndarray) -> np.ndarray:
    return v / _norms(v)[..., None]


def _lag_overlaps(states: np.ndarray, d: int) -> np.ndarray:
    """Moduli of the overlaps of the states at index 0 and 1 of axis d,
    over every other index, each bitwise equal to ``abs(np.vdot(v0, v1))``;
    the last axis holds the amplitudes."""
    pick = (slice(None),) * d
    v0, v1 = states[pick + (0,)], states[pick + (1,)]
    ov = (v0.conj()[..., None, :] @ v1[..., :, None])[..., 0, 0]
    return np.hypot(ov.real, ov.imag)


def _vacuum_aligned(vec: np.ndarray) -> np.ndarray:
    c = vec[0]
    if abs(c) < 1e-12:
        return vec
    return vec * (abs(c) / c)


def _tail_overlap(family: EmissionFamily, t: int, history: tuple[int, ...]) -> float:
    """Overlap g of the bit-0 and bit-1 tails of pulse t, with no tail built.

    Ancilla branches are orthogonal, so g is the mean over the tail bits of
    the product of per-pulse overlaps.  Pulses past the forward window of t
    emit the same vector in both tails and contribute a factor of 1; window
    pulse t + i depends on the first i tail bits only, so its 2^i overlaps
    are formed once and broadcast over the later bits.  In the canonical
    purification each window overlap is real and nonnegative, so it enters
    by its modulus.
    """
    prod = np.ones(())
    for i in range(1, family.corr_len + 1):
        # Axes of pulse t + i: its bit, the tail bits from t + i - 1 back to
        # t + 1, bit t at axis i, then the history bits inside its window.
        states = family._bit_axes(t + i)
        states = states[(slice(None),) * (i + 1) + history[: states.ndim - i - 2]]
        # Tail bits in pulse order, C-contiguous, so the mean sums as before.
        ov = np.ascontiguousarray(_lag_overlaps(states, i).T)
        prod = prod[..., None] * ov
    return float(prod.mean())


def _probability(p: float, what: str) -> float:
    if not -1e-12 <= p <= 1.0 + 1e-12:
        raise ArithmeticError(f"{what} {p} outside [0, 1] tolerance")
    return min(1.0, max(0.0, p))


def measured_characterization(family: EmissionFamily) -> SourceCharacterization:
    """Source bounds computed from the family's actual vectors.

    The per-lag fidelity deficit is taken as the worst case over every
    pulse, bit value, and context in which only the lagged bit differs,
    and the vacuum floors as the worst case over all stored states, so
    the returned characterization is valid for the family by construction
    rather than by assumption.
    """
    eps = []
    for d in range(1, family.corr_len + 1):
        worst = min(
            float(_lag_overlaps(family._bit_axes(k), d).min())
            for k in range(d + 1, family.n_pulses + 1)
        )
        # Squared as a Python float: an array square can differ in the
        # last bit.
        eps.append(1.0 - min(1.0, worst**2))
    vac = np.concatenate([table[:, :, 0] for table in family.tables], axis=1)
    p_vac0, p_vac1 = (
        min(1.0, float(v) ** 2) for v in np.hypot(vac.real, vac.imag).min(axis=1)
    )
    return SourceCharacterization(
        corr_len=family.corr_len, eps=tuple(eps), p_vac0=p_vac0, p_vac1=p_vac1
    )


@dataclass(frozen=True)
class ProofChainCheck:
    """All inequalities of the bound derivation, evaluated on one family.

    The caps and floors derive from the (possibly overridden)
    characterization; the probability and overlap fields are exact
    state-vector quantities.  Each ``ok_*`` flag compares one side of the
    chain at ``CHECK_TOL``.
    """

    n_pulses: int
    fock_dim: int
    t: int
    history: tuple[int, ...]
    characterization: SourceCharacterization
    p_minus_ref: float
    p_minus_act: float
    fidelity: float
    transfer_value: float
    a1: float
    plus_vac_prob: float
    trial: Optional[int] = None
    seed: Optional[int] = None

    @property
    def corr_len(self) -> int:
        return self.characterization.corr_len

    @property
    def minus_ref_cap(self) -> float:
        return minus_ref_bound(self.characterization)

    @property
    def fidelity_floor(self) -> float:
        return fidelity_bound(self.characterization)

    @property
    def minus_act_cap(self) -> float:
        return SecurityBounds.from_source(self.characterization).minus_act

    @property
    def a1_floor(self) -> float:
        return a1_floor(self.characterization)

    @property
    def plus_vac_floor(self) -> float:
        return plus_vac_floor(self.characterization)

    @property
    def ok_ref_cap(self) -> bool:
        return self.p_minus_ref <= self.minus_ref_cap + CHECK_TOL

    @property
    def ok_plus_vac(self) -> bool:
        return self.plus_vac_prob >= self.plus_vac_floor - CHECK_TOL

    @property
    def ok_fidelity_floor(self) -> bool:
        return self.fidelity >= self.fidelity_floor - CHECK_TOL

    @property
    def ok_side_channel(self) -> bool:
        return self.a1 >= self.a1_floor - CHECK_TOL

    @property
    def ok_transfer(self) -> bool:
        return self.p_minus_act <= self.transfer_value + CHECK_TOL

    @property
    def ok_act_cap(self) -> bool:
        return self.p_minus_act <= self.minus_act_cap + CHECK_TOL

    @property
    def passed(self) -> bool:
        return (
            self.ok_ref_cap
            and self.ok_plus_vac
            and self.ok_fidelity_floor
            and self.ok_side_channel
            and self.ok_transfer
            and self.ok_act_cap
        )

    def line(self) -> str:
        return self._line(self.passed)

    def _line(self, passed: bool) -> str:
        # The report line, with the status the caller has already evaluated.
        hist = "".join(str(b) for b in self.history) or "-"
        return (
            f"trial={-1 if self.trial is None else self.trial} "
            f"seed={-1 if self.seed is None else self.seed} "
            f"n={self.n_pulses} lc={self.corr_len} fock={self.fock_dim} "
            f"t={self.t} hist={hist} "
            f"refcap={self.minus_ref_cap:.9f} fidfloor={self.fidelity_floor:.9f} "
            f"actcap={self.minus_act_cap:.9f} p_ref={self.p_minus_ref:.9f} "
            f"p_act={self.p_minus_act:.9f} fid={self.fidelity:.9f} "
            f"transfer={self.transfer_value:.9f} a1={self.a1:.9f} "
            f"a1floor={self.a1_floor:.9f} "
            f"status={'PASS' if passed else 'FAIL'}"
        )


def check_proof_chain(
    family: EmissionFamily,
    t: int,
    history: Sequence[int],
    characterization: Optional[SourceCharacterization] = None,
    trial: Optional[int] = None,
) -> ProofChainCheck:
    """Evaluate the full inequality chain for one analyzed pulse.

    ``characterization`` overrides the measured one; feeding deliberately
    corrupted bounds through it is how fault injection exercises the
    violation detection.
    """
    # Pulse t is analyzed with the corr_len pulses after it.
    _require_integer("t", t, 1, family.n_pulses - family.corr_len)
    w = _window(family.corr_len, t)
    if len(history) != w:
        raise ValueError(f"pulse {t} takes {w} history bits, got {len(history)}")
    # Closed forms on the actual block (|0> b0 T0 + |1> b1 T1) / sqrt(2)
    # and the reference block, which carries T0 in both branches.  Reading
    # b0 and b1 checks the history bits.
    b0, b1 = (_vacuum_aligned(family.pulse_state(t, jt, history)) for jt in (0, 1))
    history = tuple(int(b) for b in history)
    char = characterization or measured_characterization(family)
    if char.corr_len != family.corr_len:
        raise ValueError("characterization correlation length mismatch")
    g = _tail_overlap(family, t, history)
    base = complex(np.vdot(b0, b1))
    p_act = _probability((1.0 - base.real * g) / 2.0, "minus probability")
    p_ref = _probability((1.0 - base.real) / 2.0, "minus probability")
    plus_vac = _probability(abs(complex(b0[0] + b1[0])) ** 2 / 4.0, "joint probability")
    fid = _probability((1.0 + g) / 2.0, "fidelity")
    return ProofChainCheck(
        n_pulses=family.n_pulses,
        fock_dim=family.fock_dim,
        t=t,
        history=history,
        characterization=char,
        p_minus_ref=p_ref,
        p_minus_act=p_act,
        fidelity=fid,
        transfer_value=_transfer(p_ref, fid),
        a1=min(1.0, g),
        plus_vac_prob=plus_vac,
        trial=trial,
        seed=family.seed,
    )


def _random_unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    return _normalized(rng.normal(size=dim) + 1j * rng.normal(size=dim))


def _vacuum_weighted_unit(
    rng: np.random.Generator, dim: int, weight: float
) -> np.ndarray:
    rest = rng.normal(size=dim - 1) + 1j * rng.normal(size=dim - 1)
    rest *= math.sqrt(1.0 - weight) / _norms(rest)
    phase = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    return np.concatenate(([math.sqrt(weight) * phase], rest))


def random_family(
    n_pulses: int,
    corr_len: int,
    fock_dim: int,
    seed: int,
    style: str = "perturbed",
) -> EmissionFamily:
    """Draw a random emission family respecting the bounded-range rule.

    ``perturbed`` families start from one vacuum-heavy base state per bit
    value and add a history-keyed random kick, so their measured deficits
    and vacuum floors land in the regime where the bounds are nontrivial.
    ``free`` families are fully independent random unit vectors, which
    mostly exercises the trivial branch of the transferred cap.  Every
    table entry's real and imaginary normals come from one draw, in table
    order.
    """
    _require_integer("n_pulses", n_pulses)
    _require_integer("corr_len", corr_len, 0)
    _require_integer("fock_dim", fock_dim, 2)
    _require_integer("seed", seed, 0)
    if style not in ("perturbed", "free"):
        raise ValueError(f"unknown family style {style!r}")
    rng = np.random.default_rng(seed)
    if style == "perturbed":
        base = np.array(
            [
                _vacuum_weighted_unit(rng, fock_dim, rng.uniform(0.55, 0.95))
                for _ in (0, 1)
            ]
        )
        strength = 10.0 ** rng.uniform(-3.0, math.log10(0.6))
    sizes = [2 * 2 ** _window(corr_len, k) for k in range(1, n_pulses + 1)]
    normals = rng.normal(size=(sum(sizes), 2, fock_dim))
    units = _normalized(normals[:, 0] + 1j * normals[:, 1])
    rows = np.split(units, np.cumsum(sizes)[:-1])
    tables = [r.reshape(2, size // 2, fock_dim) for r, size in zip(rows, sizes)]
    if style == "perturbed":
        tables = [_normalized(base[:, None] + strength * t) for t in tables]
    return EmissionFamily(corr_len=corr_len, tables=tables, seed=seed)


def coherent_family(
    n_pulses: int,
    corr_len: int,
    mu: float,
    delta: float,
    fock_dim: int = 8,
    seed: Optional[int] = None,
) -> EmissionFamily:
    """Coherent-state family of the phase-rotation source model.

    Pulse amplitude ``(-1)^bit * sqrt(mu)`` picks up the kick
    ``PhaseRotationModel(mu, delta, corr_len).rotation(lag)`` for every
    1-bit in the history at that lag.
    Vectors are truncated to ``fock_dim`` levels and renormalized; the
    default keeps the truncation error, the dropped photon-number
    probability, below 1e-9 for mu <= 0.29.
    """
    _require_integer("n_pulses", n_pulses)
    _require_integer("fock_dim", fock_dim, 2)
    if np.ndim(mu) != 0:
        raise ValueError(f"mu must be a single number, got {mu!r}")
    model = PhaseRotationModel(mu=mu, delta=delta, corr_len=corr_len)
    ns = np.arange(fock_dim)
    log_fact = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, fock_dim)))))
    root_fact = np.exp(0.5 * log_fact)
    tables = []
    for k in range(1, n_pulses + 1):
        w = _window(corr_len, k)
        # The kicks add lag by lag, in order; a reordered sum can differ in
        # the last bit.
        phase = np.zeros(2**w)
        for lag in range(1, w + 1):
            phase += np.where(np.arange(2**w) >> (w - lag) & 1, model.rotation(lag), 0.0)
        alpha = np.array([[1.0], [-1.0]]) * math.sqrt(mu) * np.exp(1j * phase)
        tables.append(_normalized(np.power(alpha[..., None], ns) / root_fact))
    return EmissionFamily(corr_len=corr_len, tables=tables, seed=seed)


@dataclass(frozen=True)
class OracleCampaign:
    """Aggregated proof-chain trials, serializable one line per trial.

    Each check's status is evaluated once, on construction, since each
    evaluation re-derives the check's caps; the report lines, the failure
    count and the verdict all read ``verdicts``.
    """

    checks: tuple[ProofChainCheck, ...]
    verdicts: tuple[bool, ...] = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "verdicts", tuple(c.passed for c in self.checks))

    @property
    def n_trials(self) -> int:
        return len(self.checks)

    @property
    def n_failed(self) -> int:
        return self.verdicts.count(False)

    @property
    def passed(self) -> bool:
        return self.n_failed == 0

    def lines(self) -> list[str]:
        out = [c._line(ok) for c, ok in zip(self.checks, self.verdicts)]
        out.append(
            f"summary trials={self.n_trials} failed={self.n_failed} "
            f"status={'PASS' if self.passed else 'FAIL'}"
        )
        return out


def run_family_campaign(
    n_trials: int,
    seed: int,
    max_pulses: int = 4,
    max_fock: int = 8,
    eps_scale: Optional[float] = None,
) -> OracleCampaign:
    """Randomized proof-chain verification over generated families.

    Mixes perturbed, free, and coherent families; pulse count, correlation
    length, truncation level, analyzed pulse, and history are all drawn per
    trial from a counter-keyed stream, so trials are reproducible and
    order independent.  ``eps_scale`` multiplies the measured per-lag
    deficits before the bounds are formed; values below 1 understate the
    correlations and must trip the checks.  Every argument is checked
    before the first trial, and so is the largest family the arguments
    allow: its tables must fit ``_TABLE_BUDGET`` (2**21) amplitudes.
    """
    _require_integer("n_trials", n_trials, 1)
    _require_integer("seed", seed, 0)
    _require_integer("max_pulses", max_pulses, 2)
    # Coherent families keep at least 6 Fock levels.
    _require_integer("max_fock", max_fock, 6)
    if eps_scale is not None:
        message = "eps_scale must be a finite number >= 0, got {}"
        _require(eps_scale, message, high=_LARGEST)
    # Pulse k's table holds 2 * 2**min(top, k - 1) * max_fock amplitudes, so
    # the largest family holds this many, counted in Python ints so that a
    # numpy integer argument cannot wrap:
    top = _window(_DRAWN_CORR_LEN, max_pulses)
    amplitudes = 2 * int(max_fock) * ((int(max_pulses) - top + 1) * 2**top - 1)
    name = f"table amplitudes at max_pulses {max_pulses}, max_fock {max_fock}"
    _require_integer(name, amplitudes, 1, _TABLE_BUDGET)
    checks = []
    for i in range(n_trials):
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(i,))
        rng = np.random.default_rng(ss)
        fam_seed = int(ss.generate_state(1, np.uint32)[0])
        n = int(rng.integers(2, max_pulses + 1))
        lc = int(rng.integers(0, _window(_DRAWN_CORR_LEN, n) + 1))
        kind = rng.random()
        if kind < 0.1:
            fock = int(rng.integers(6, max_fock + 1))
            fam = coherent_family(
                n_pulses=n,
                corr_len=lc,
                mu=float(rng.uniform(0.02, 0.3)),
                delta=float(rng.uniform(0.05, 0.6)),
                fock_dim=fock,
                seed=fam_seed,
            )
        else:
            style = "free" if kind > 0.85 else "perturbed"
            fock = int(rng.integers(2, max_fock + 1))
            fam = random_family(
                n_pulses=n, corr_len=lc, fock_dim=fock, seed=fam_seed, style=style
            )
        t = int(rng.integers(1, n - lc + 1))
        history = tuple(int(b) for b in rng.integers(0, 2, size=_window(lc, t)))
        char = measured_characterization(fam)
        if eps_scale is not None:
            eps = tuple(min(1.0, max(0.0, e * eps_scale)) for e in char.eps)
            char = replace(char, eps=eps)
        check = check_proof_chain(fam, t, history, characterization=char, trial=i)
        checks.append(check)
    return OracleCampaign(tuple(checks))


@dataclass(frozen=True)
class FidelityPropositionResult:
    """Outcome of the vacuum-overlap floor check on random state pairs."""

    dim: int
    n_trials: int
    n_failed: int
    worst_margin: float

    @property
    def passed(self) -> bool:
        return self.n_failed == 0

    def lines(self) -> list[str]:
        return [
            f"fidelity-floor dim={self.dim} trials={self.n_trials} "
            f"failed={self.n_failed} worst_margin={self.worst_margin:.3e} "
            f"status={'PASS' if self.passed else 'FAIL'}"
        ]


def verify_fidelity_proposition(
    dim: int, n_trials: int, seed: int
) -> FidelityPropositionResult:
    """Check the overlap floor from vacuum weights on random state pairs.

    Half the pairs are biased toward large vacuum amplitude so the floor
    is nontrivial; the rest exercise the trivial branch.  A pair fails when
    its overlap falls below the floor by more than ``FIDELITY_TOL``.
    """
    _require_integer("dim", dim, 2)
    _require_integer("n_trials", n_trials, 1)
    _require_integer("seed", seed, 0)
    rng = np.random.default_rng(seed)
    failed = 0
    worst = math.inf
    for _ in range(n_trials):
        pair = []
        for _ in range(2):
            if rng.random() < 0.5:
                pair.append(_vacuum_weighted_unit(rng, dim, rng.uniform(0.4, 1.0)))
            else:
                pair.append(_random_unit(rng, dim))
        lhs = float(abs(np.vdot(pair[0], pair[1])))
        rhs = vacuum_fidelity_bound(
            float(abs(pair[0][0]) ** 2), float(abs(pair[1][0]) ** 2)
        )
        margin = lhs - rhs
        worst = min(worst, margin)
        if margin < -FIDELITY_TOL:
            failed += 1
    return FidelityPropositionResult(
        dim=dim,
        n_trials=n_trials,
        n_failed=failed,
        worst_margin=worst,
    )
