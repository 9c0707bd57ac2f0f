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

Families are built and characterized in stacks: every array step takes
the tables of families that share one layout (pulse count, correlation
length and Fock dimension) with a leading trial axis.  The public functions
run it on a stack of one.  A campaign first draws every trial, in trial
order and from the trial's own stream; a random family's trial holds only
its family's seed.  It then takes each layout's trials in chunks of at most
``_CHUNK_AMPLITUDES`` table amplitudes, or one trial where one family holds
more, and draws, builds, characterizes and checks each chunk in one array
pass.  A chunk's measured characterization is one batch of the security
layer, which derives its caps and floors once, with one entry per trial,
and each closed form of its checks is one array expression over its
trials.  Gathering each trial's tail overlap is the one step per trial,
since the analyzed pulse and its history differ between trials.  Stacked
norms and overlaps are bitwise equal to the one-vector forms, and batch
caps to one-point ones, so a stack's results do not depend on what else it
holds.  A modulus is squared as ``x * x``, which is correctly rounded, as
libm's ``pow`` need not be.  The builders normalize what they build, so only
``EmissionFamily`` checks the layout and norms of its tables, which a caller
may pass in.

No state vector larger than one pulse is ever formed.  A randomized
campaign caps the tables instead: the largest family its arguments allow
must fit ``_TABLE_BUDGET`` (2**21) amplitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .security import (
    SourceCharacterization,
    _LARGEST,
    _require,
    _require_integer,
    _transfer,
    _vacuum_overlap_floor,
)
from .sources import PhaseRotationModel

# Most amplitudes the tables of a campaign's largest family may hold.
_TABLE_BUDGET = 2**21
# A campaign draws corr_len up to this, and up to its last pulse's window.
_DRAWN_CORR_LEN = 2
# Most state pairs drawn before the array step evaluates them.
_WINDOW = 256
# Most table amplitudes one array step of a campaign holds, unless one family
# holds more: at the default max_fock of 8 that is at least 372 families.
_CHUNK_AMPLITUDES = 2**16
# Tolerance of every proof-chain inequality, and of the vacuum-overlap
# floor on random state pairs.
CHECK_TOL = 1e-9
FIDELITY_TOL = 1e-12


def _window(corr_len: int, k: int) -> int:
    """How many history bits the state of pulse k may depend on."""
    return min(corr_len, k - 1)


def _rows(n_pulses: int, corr_len: int) -> int:
    """How many states the tables of a family hold: pulse k's table holds
    2 * 2**min(corr_len, k - 1), summed in Python ints, which cannot wrap."""
    n = int(n_pulses)
    w = _window(int(corr_len), n)
    return 2 * ((n - w + 1) * 2**w - 1)


def _bit_axes(table: np.ndarray, corr_len: int, k: int) -> np.ndarray:
    # Pulse k's table, or a stack of them, with one axis per bit after any
    # leading trial axis: the encoded bit, then the bit d pulses earlier at
    # d places further, the last axis the amplitudes.
    bit_axes = (2,) * (_window(corr_len, k) + 1)
    return table.reshape(table.shape[:-3] + bit_axes + (-1,))


def _check_tables(corr_len: int, tables: Sequence[np.ndarray]) -> None:
    """The layout and norm checks of one family's tables: every table's
    shape first, then every table's norms, each in pulse order."""
    _require_integer("n_pulses", len(tables), corr_len + 1)
    fock_dim = tables[0].shape[-1]
    _require_integer("fock_dim", fock_dim, 2)
    for k, table in enumerate(tables, start=1):
        shape = (2, 2 ** _window(corr_len, k), fock_dim)
        if table.shape != shape:
            raise ValueError(f"pulse {k} table has shape {table.shape}, not {shape}")
    for k, table in enumerate(tables, start=1):
        if not np.all(np.abs(_norms(table) - 1.0) <= 1e-12):
            raise ValueError(f"pulse {k} holds a state that is not normalized")


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
        # At least 1-D, so that a 0-d table meets the fock_dim check.
        tables = (np.atleast_1d(np.asarray(t, dtype=complex)) for t in self.tables)
        object.__setattr__(self, "tables", tuple(tables))
        _require_integer("corr_len", self.corr_len, 0)
        _check_tables(self.corr_len, self.tables)

    @property
    def n_pulses(self) -> int:
        return len(self.tables)

    @property
    def fock_dim(self) -> int:
        return self.tables[0].shape[-1]

    def _lags(self) -> _LagOverlaps:
        # The lag overlaps of the tables as a stack of one family.
        return _LagOverlaps(self.corr_len, [table[None] for table in self.tables])


def _norms(v: np.ndarray) -> np.ndarray:
    # Norms of the vectors along the last axis, each bitwise equal to
    # np.linalg.norm of the vector: the same two real dot products.
    re, im = v.real[..., None, :], v.imag[..., None, :]
    return np.sqrt((re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[..., 0, 0])


def _overlaps(states: np.ndarray, d: int) -> np.ndarray:
    """Overlaps ``<v0|v1>`` of the states at index 0 and 1 of axis d, over
    every other index, each bitwise equal to ``np.vdot(v0, v1)``; the last
    axis holds the amplitudes."""
    pick = (slice(None),) * d
    v0, v1 = states[pick + (0,)], states[pick + (1,)]
    return (v0.conj()[..., None, :] @ v1[..., :, None])[..., 0, 0]


def _lag_overlaps(states: np.ndarray, d: int) -> np.ndarray:
    """Moduli of ``_overlaps(states, d)``, each bitwise equal to
    ``abs(np.vdot(v0, v1))``."""
    ov = _overlaps(states, d)
    return np.hypot(ov.real, ov.imag)


def _complex(normals: np.ndarray) -> np.ndarray:
    # Complex vectors from normals of shape (..., 2, dim), the real parts
    # at index 0 of the second-last axis and the imaginary parts at index 1.
    out = np.empty(normals.shape[:-2] + normals.shape[-1:], dtype=complex)
    out.real = normals[..., 0, :]
    out.imag = normals[..., 1, :]
    return out


def _units(normals: np.ndarray) -> np.ndarray:
    """Random unit vectors from normals of shape (..., 2, dim)."""
    units = _complex(normals)
    units /= _norms(units)[..., None]
    return units


def _draw_vacuum_weighted(rng: np.random.Generator, dim: int) -> tuple:
    # The draws of one unit vector after its vacuum weight: the normals of
    # its other amplitudes and the phase of its vacuum amplitude.
    return rng.normal(size=(2, dim - 1)), rng.uniform(0.0, 2.0 * math.pi)


def _vacuum_weighted_units(
    weight: np.ndarray, normals: np.ndarray, angle: np.ndarray
) -> np.ndarray:
    """Unit vectors from stacked ``_draw_vacuum_weighted`` draws."""
    rest = _complex(normals)
    rest *= (np.sqrt(1.0 - weight) / _norms(rest))[..., None]
    vacuum = np.sqrt(weight) * np.exp(1j * angle)
    return np.concatenate((vacuum[..., None], rest), axis=-1)


class _LagOverlaps(dict):
    """``self[k, d]``: the lag-d overlap moduli of pulse k of every family in
    a stack, computed on first use, with the trial axis first and then the
    axes of the remaining bits in ``_bit_axes`` order."""

    def __init__(self, corr_len: int, tables: Sequence[np.ndarray]) -> None:
        super().__init__()
        self.corr_len = corr_len
        self.tables = tables

    def __missing__(self, key: tuple[int, int]) -> np.ndarray:
        k, d = key
        states = _bit_axes(self.tables[k - 1], self.corr_len, k)
        self[key] = overlaps = _lag_overlaps(states, d + 1)
        return overlaps


def _tail_overlap(
    lags: _LagOverlaps, j: int, t: int, history: tuple[int, ...]
) -> float:
    """Overlap g of the bit-0 and bit-1 tails of pulse t of family j of a
    stack, with no tail built.

    Ancilla branches are orthogonal, so g is the mean over the tail bits of
    the product of per-pulse overlaps.  Pulses past the forward window of t
    emit the same vector in both tails and contribute a factor of 1; window
    pulse t + i depends on the first i tail bits only, so its 2^i overlaps
    are read once and broadcast over the later bits.  In the canonical
    purification each window overlap is real and nonnegative, so it enters
    by its modulus.
    """
    prod = np.ones(())
    for i in range(1, lags.corr_len + 1):
        # Pulse t + i's overlaps across bit t: axes its bit, the tail bits
        # from t + i - 1 back to t + 1, then the history bits in its window.
        ov = lags[t + i, i][j]
        ov = ov[(slice(None),) * i + history[: ov.ndim - i]]
        # Tail bits in pulse order, C-contiguous, so the mean sums in order.
        prod = prod[..., None] * np.ascontiguousarray(ov.T)
    return float(prod.mean())


def _probability(p: np.ndarray, what: str) -> list[float]:
    """The entries of ``p`` clipped to [0, 1], as floats; the first entry
    outside by more than 1e-12 raises."""
    inside = (-1e-12 <= p) & (p <= 1.0 + 1e-12)
    if not inside.all():
        bad = p[np.argmin(inside)].item()
        raise ArithmeticError(f"{what} {bad} outside [0, 1] tolerance")
    return np.clip(p, 0.0, 1.0).tolist()


def _characterizations(
    lags: _LagOverlaps, eps_scale: Optional[float] = None
) -> SourceCharacterization:
    """The measured characterization of a stack of families, as one batch
    whose deficits and floors hold one entry per family, with each per-lag
    deficit scaled by ``eps_scale`` and clipped to [0, 1] if given."""
    tables, n_trials = lags.tables, len(lags.tables[0])
    worst = [
        np.min(
            [
                lags[k, d].reshape(n_trials, -1).min(axis=1)
                for k in range(d + 1, len(tables) + 1)
            ],
            axis=0,
        )
        for d in range(1, lags.corr_len + 1)
    ]
    vac = np.concatenate([table[..., 0] for table in tables], axis=2)
    # One row per lag, then the bit-0 and bit-1 vacuum floors.
    moduli = np.concatenate(
        [np.reshape(worst, (-1, n_trials)), np.hypot(vac.real, vac.imag).min(axis=2).T]
    )
    squares = np.minimum(1.0, moduli * moduli)
    eps = 1.0 - squares[:-2]
    if eps_scale is not None:
        eps = np.clip(eps * eps_scale, 0.0, 1.0)
    return SourceCharacterization(eps=tuple(eps), p_vac0=squares[-2], p_vac1=squares[-1])


def measured_characterization(family: EmissionFamily) -> SourceCharacterization:
    """Source bounds computed from the family's actual vectors.

    The per-lag fidelity deficit is taken as the worst case over every
    pulse, bit value, and context in which only the lagged bit differs,
    and the vacuum floors as the worst case over all stored states, so
    the returned characterization is valid for the family by construction
    rather than by assumption.
    """
    char = _characterizations(family._lags())
    eps = tuple(e.item() for e in char.eps)
    return replace(char, eps=eps, p_vac0=char.p_vac0.item(), p_vac1=char.p_vac1.item())


@dataclass(frozen=True)
class ProofChainCheck:
    """All inequalities of the bound derivation, evaluated on one family.

    The caps and floors are those the security layer derives from the
    (possibly overridden) characterization; the probability and overlap
    fields are exact state-vector quantities.  Each ``ok_*`` flag compares
    one side of the chain at ``CHECK_TOL``.
    """

    n_pulses: int
    fock_dim: int
    corr_len: int
    t: int
    history: tuple[int, ...]
    minus_ref_cap: float
    fidelity_floor: float
    minus_act_cap: float
    a1_floor: float
    plus_vac_floor: float
    p_minus_ref: float
    p_minus_act: float
    fidelity: float
    transfer_value: float
    a1: float
    plus_vac_prob: float
    trial: Optional[int] = None
    seed: Optional[int] = None

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
            f"status={'PASS' if self.passed else 'FAIL'}"
        )


def _proof_chain_checks(
    lags: _LagOverlaps,
    ts: Sequence[int],
    histories: Sequence[tuple[int, ...]],
    char: SourceCharacterization,
    trials: Sequence[Optional[int]],
    seeds: Sequence[Optional[int]],
) -> list[ProofChainCheck]:
    """One check per family of a stack, of pulse ``ts[j]`` of family j
    under ``histories[j]`` against entry j of ``char``, a batch with one
    entry per family or one source for them all.

    Closed forms on the actual block (|0> b0 T0 + |1> b1 T1) / sqrt(2) and
    the reference block, which carries T0 in both branches, each one array
    expression over the stack.  Gathering each family's two states and
    tail overlap is the one step per family, since t and the history
    differ between families.  The caps and floors are the ones ``char``
    derived when it was built.
    """
    corr_len, tables = lags.corr_len, lags.tables
    picks = list(enumerate(zip(ts, histories)))
    states = np.array(
        [
            _bit_axes(tables[t - 1], corr_len, t)[(j, slice(None), *history)]
            for j, (t, history) in picks
        ]
    )
    g = np.array([_tail_overlap(lags, j, t, history) for j, (t, history) in picks])
    # Rotate b0 and b1 so that each vacuum amplitude is real nonnegative; a
    # state without vacuum, or already so, stays exactly as it is.
    vacuum = states[..., 0]
    modulus = np.hypot(vacuum.real, vacuum.imag)
    rotate = (modulus >= 1e-12) & (vacuum != modulus)
    align = np.divide(modulus, vacuum, out=np.ones_like(vacuum), where=rotate)
    states *= align[..., None]
    base = _overlaps(states, 1).real
    plus = states[:, 0, 0] + states[:, 1, 0]
    plus = np.hypot(plus.real, plus.imag)
    p_ref = _probability((1.0 - base) / 2.0, "minus probability")
    p_act = _probability((1.0 - base * g) / 2.0, "minus probability")
    fid = _probability((1.0 + g) / 2.0, "fidelity")
    plus_vac = _probability(plus * plus / 4.0, "joint probability")
    a1 = np.minimum(1.0, g).tolist()
    exact = (p_ref, p_act, fid, map(_transfer, p_ref, fid), a1, plus_vac)
    fields = ("minus_ref", "fidelity", "minus_act", "a1_floor", "plus_vac_floor")
    caps = [np.full(len(ts), getattr(char, name)).tolist() for name in fields]
    layout = (len(tables), tables[0].shape[-1], corr_len)
    # One column per field after the layout, in field order.
    columns = zip(ts, histories, *caps, *exact, trials, seeds)
    return [ProofChainCheck(*layout, *row) for row in columns]


def check_proof_chain(
    family: EmissionFamily,
    t: int,
    history: Sequence[int],
    characterization: Optional[SourceCharacterization] = None,
) -> ProofChainCheck:
    """Evaluate the full inequality chain for one analyzed pulse.

    ``characterization`` overrides the measured one and must describe one
    source, not a batch, of the family's correlation length; feeding
    deliberately corrupted bounds through it is how fault injection
    exercises the violation detection.  The check's ``trial`` is None.
    """
    # Pulse t is analyzed with the corr_len pulses after it.
    _require_integer("t", t, 1, family.n_pulses - family.corr_len)
    w = _window(family.corr_len, t)
    if len(history) != w:
        raise ValueError(f"pulse {t} takes {w} history bits, got {len(history)}")
    if any(b not in (0, 1) for b in history):
        raise ValueError(f"history bits must be 0 or 1, got {tuple(history)}")
    # int(): a bool in an index tuple would act as a mask.
    history = tuple(int(b) for b in history)
    lags = family._lags()
    char = characterization
    if char is None:
        char = _characterizations(lags)
    elif char.corr_len != family.corr_len:
        raise ValueError("characterization correlation length mismatch")
    elif any(isinstance(v, np.ndarray) for v in (*char.eps, char.p_vac0, char.p_vac1)):
        raise ValueError("characterization must describe one source, not a batch")
    return _proof_chain_checks(lags, [t], [history], char, [None], [family.seed])[0]


def _random_tables(
    style: str, n_pulses: int, corr_len: int, fock_dim: int, seeds: Sequence[int]
) -> list[np.ndarray]:
    """Stacked tables of random families, one per seed, each drawn from its
    seed's stream: a perturbed family's two vacuum-weighted base draws and
    kick strength, then the real and imaginary normals of every table
    entry, in table order.  The entries are random unit vectors, which a
    perturbed family scales by its strength, adds to its base state of the
    same bit and normalizes again, all in place.
    """
    normals = np.empty((len(seeds), _rows(n_pulses, corr_len), 2, fock_dim))
    bases, strengths = [], []
    for seed, out in zip(seeds, normals):
        rng = np.random.default_rng(seed)
        if style == "perturbed":
            for _ in (0, 1):
                weight = rng.uniform(0.55, 0.95)
                bases.append((weight, *_draw_vacuum_weighted(rng, fock_dim)))
            strengths.append(10.0 ** rng.uniform(-3.0, math.log10(0.6)))
        # Bitwise equal to rng.normal(size=out.shape), from the same draws.
        rng.standard_normal(out=out)
    if style == "perturbed":
        # Built first, so that its temporaries never meet the unit rows.
        base = _vacuum_weighted_units(*(np.array(x) for x in zip(*bases)))
        base = base.reshape(len(seeds), 2, 1, -1)
    units = _units(normals)
    sizes = [2 ** _window(corr_len, k) for k in range(1, n_pulses + 1)]
    rows = np.split(units, np.cumsum(sizes)[:-1] * 2, axis=1)
    tables = [r.reshape(len(units), 2, size, -1) for r, size in zip(rows, sizes)]
    if style == "perturbed":
        units *= np.array(strengths)[:, None, None]
        for table in tables:
            table += base
        units /= _norms(units)[..., None]
    return tables


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
    _require_integer("n_pulses", n_pulses, 1)
    _require_integer("corr_len", corr_len, 0)
    _require_integer("fock_dim", fock_dim, 2)
    _require_integer("seed", seed, 0)
    if style not in ("perturbed", "free"):
        raise ValueError(f"unknown family style {style!r}")
    tables = _random_tables(style, n_pulses, corr_len, fock_dim, [seed])
    return EmissionFamily(corr_len=corr_len, tables=[t[0] for t in tables], seed=seed)


def _coherent_tables(
    n_pulses: int,
    corr_len: int,
    fock_dim: int,
    mu: Sequence[float],
    delta: Sequence[float],
) -> list[np.ndarray]:
    """Stacked tables of coherent families, one per pair of mu and delta."""
    models = [PhaseRotationModel(m, d, corr_len) for m, d in zip(mu, delta)]
    rotation = np.reshape(
        [[m.rotation(lag) for lag in range(1, corr_len + 1)] for m in models],
        (len(models), corr_len),
    )
    ns = np.arange(fock_dim)
    log_fact = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, fock_dim)))))
    # sqrt(n!) overflows past about 300 levels, which then get amplitude 0.
    # Their true amplitudes are below 1e-20 of the largest whenever alpha**n
    # stays finite there (mu up to about 110).
    with np.errstate(over="ignore"):
        root_fact = np.exp(0.5 * log_fact)
    amplitude = np.array([[1.0], [-1.0]]) * np.sqrt(mu)[:, None, None]
    tables = []
    for k in range(1, n_pulses + 1):
        w = _window(corr_len, k)
        # The kicks add lag by lag, in order; a reordered sum can differ in
        # the last bit.
        phase = np.zeros((len(models), 2**w))
        for lag in range(1, w + 1):
            kicked = np.arange(2**w) >> (w - lag) & 1
            phase += np.where(kicked, rotation[:, lag - 1 : lag], 0.0)
        alpha = amplitude * np.exp(1j * phase)[:, None]
        table = np.power(alpha[..., None], ns) / root_fact
        table /= _norms(table)[..., None]
        tables.append(table)
    return tables


def coherent_family(
    n_pulses: int,
    corr_len: int,
    mu: float,
    delta: float,
    fock_dim: int = 8,
) -> EmissionFamily:
    """Coherent-state family of the phase-rotation source model.

    Pulse amplitude ``(-1)^bit * sqrt(mu)`` picks up the kick
    ``PhaseRotationModel(mu, delta, corr_len).rotation(lag)`` for every
    1-bit in the history at that lag.
    Vectors are truncated to ``fock_dim`` levels and renormalized; the
    default keeps the truncation error, the dropped photon-number
    probability, below 1e-9 for mu <= 0.29.
    """
    _require_integer("n_pulses", n_pulses, 1)
    _require_integer("fock_dim", fock_dim, 2)
    if np.ndim(mu) != 0:
        raise ValueError(f"mu must be a single number, got {mu!r}")
    tables = _coherent_tables(n_pulses, corr_len, fock_dim, [mu], [delta])
    return EmissionFamily(corr_len=corr_len, tables=[t[0] for t in tables])


@dataclass(frozen=True)
class OracleCampaign:
    """Aggregated proof-chain trials, serializable one line per trial."""

    checks: tuple[ProofChainCheck, ...]

    @property
    def n_trials(self) -> int:
        return len(self.checks)

    @cached_property
    def n_failed(self) -> int:
        return sum(not c.passed for c in self.checks)

    @property
    def passed(self) -> bool:
        return self.n_failed == 0

    def lines(self) -> list[str]:
        out = [c.line() for c in self.checks]
        out.append(
            f"summary trials={self.n_trials} failed={self.n_failed} "
            f"status={'PASS' if self.passed else 'FAIL'}"
        )
        return out


def _draw_trial(seed: int, i: int, max_pulses: int, max_fock: int) -> tuple:
    """Trial i's draws, from its counter-keyed stream.

    Returns the trial's table layout (family kind, pulse count, correlation
    length, Fock dimension) and the trial: its index, its family seed, a
    coherent family's mu and delta (nothing for a random family, whose
    draws come from its seed when its tables are built), the analyzed pulse
    and its history.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(i,))
    rng = np.random.default_rng(ss)
    fam_seed = int(ss.generate_state(1, np.uint32)[0])
    n = int(rng.integers(2, max_pulses + 1))
    lc = int(rng.integers(0, _window(_DRAWN_CORR_LEN, n) + 1))
    u = rng.random()
    if u < 0.1:
        kind = "coherent"
        fock = int(rng.integers(6, max_fock + 1))
        params = float(rng.uniform(0.02, 0.3)), float(rng.uniform(0.05, 0.6))
    else:
        kind = "free" if u > 0.85 else "perturbed"
        fock = int(rng.integers(2, max_fock + 1))
        params = ()
    t = int(rng.integers(1, n - lc + 1))
    history = tuple(int(b) for b in rng.integers(0, 2, size=_window(lc, t)))
    return (kind, n, lc, fock), (i, fam_seed, params, t, history)


def _layout_checks(
    layout: tuple, trials: Sequence[tuple], eps_scale: Optional[float]
) -> list[ProofChainCheck]:
    """The checks of drawn trials that share one table layout, in one array
    pass: build the tables, characterize and check."""
    kind, n_pulses, corr_len, fock_dim = layout
    ids, seeds, params, ts, histories = zip(*trials)
    if kind == "coherent":
        mu, delta = zip(*params)
        tables = _coherent_tables(n_pulses, corr_len, fock_dim, mu, delta)
    else:
        tables = _random_tables(kind, n_pulses, corr_len, fock_dim, seeds)
    lags = _LagOverlaps(corr_len, tables)
    char = _characterizations(lags, eps_scale)
    return _proof_chain_checks(lags, ts, histories, char, ids, seeds)


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

    Every trial is drawn first, in trial order; a random family's trial
    holds only its family seed.  Each table layout's trials are then taken
    in chunks of at most ``_CHUNK_AMPLITUDES`` table amplitudes, or of one
    trial where one family holds more, and each chunk's families are drawn
    from their seeds, built, characterized and checked in one array pass.
    Each check equals, but for its trial and seed labels, the one
    ``check_proof_chain`` gives on the family ``random_family`` or
    ``coherent_family`` builds from the same draws.
    """
    _require_integer("n_trials", n_trials, 1)
    _require_integer("seed", seed, 0)
    _require_integer("max_pulses", max_pulses, 2)
    # Coherent families keep at least 6 Fock levels.
    _require_integer("max_fock", max_fock, 6)
    if eps_scale is not None:
        message = "eps_scale must be a finite number >= 0, got {}"
        _require(eps_scale, message, high=_LARGEST)
    amplitudes = _rows(max_pulses, _DRAWN_CORR_LEN) * int(max_fock)
    name = f"table amplitudes at max_pulses {max_pulses}, max_fock {max_fock}"
    _require_integer(name, amplitudes, 1, _TABLE_BUDGET)
    groups: dict[tuple, list] = {}
    for i in range(n_trials):
        layout, trial = _draw_trial(seed, i, max_pulses, max_fock)
        groups.setdefault(layout, []).append(trial)
    checks: list[ProofChainCheck] = []
    for layout, trials in groups.items():
        _, n_pulses, corr_len, fock_dim = layout
        size = max(1, _CHUNK_AMPLITUDES // (_rows(n_pulses, corr_len) * fock_dim))
        for start in range(0, len(trials), size):
            checks += _layout_checks(layout, trials[start : start + size], eps_scale)
    return OracleCampaign(tuple(sorted(checks, key=lambda c: c.trial)))


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
    its overlap falls below the floor by more than ``FIDELITY_TOL``.  The
    pairs are drawn one by one; each window of ``_WINDOW`` pairs gets its
    overlaps and vacuum weights in one array pass, its floors pair by pair.
    """
    _require_integer("dim", dim, 2)
    _require_integer("n_trials", n_trials, 1)
    _require_integer("seed", seed, 0)
    rng = np.random.default_rng(seed)
    margins = []
    for start in range(0, n_trials, _WINDOW):
        count = 2 * min(_WINDOW, n_trials - start)
        weighted = np.zeros(count, dtype=bool)
        weight, angle = np.empty(count), np.empty(count)
        normals = np.empty((count, 2, dim))
        for v in range(count):
            weighted[v] = rng.random() < 0.5
            if weighted[v]:
                weight[v] = rng.uniform(0.4, 1.0)
                normals[v, :, 1:], angle[v] = _draw_vacuum_weighted(rng, dim)
            else:
                normals[v] = rng.normal(size=(2, dim))
        states = np.empty((count, dim), dtype=complex)
        states[weighted] = _vacuum_weighted_units(
            weight[weighted], normals[weighted, :, 1:], angle[weighted]
        )
        states[~weighted] = _units(normals[~weighted])
        vac = np.hypot(states[:, 0].real, states[:, 0].imag)
        weights = vac * vac
        floors = list(map(_vacuum_overlap_floor, *weights.reshape(-1, 2).T.tolist()))
        margins += (_lag_overlaps(states.reshape(-1, 2, dim), 1) - floors).tolist()
    return FidelityPropositionResult(
        dim=dim,
        n_trials=n_trials,
        n_failed=sum(m < -FIDELITY_TOL for m in margins),
        worst_margin=min(margins),
    )
