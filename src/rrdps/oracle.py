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

Checks are evaluated on the phase-canonical form of the states: each
emitted state is only defined up to a global phase, and the bounds hold
for the purification in which the vacuum amplitude of the analyzed pulse
is real nonnegative and each later pulse's bit-1 variant is phase aligned
with its bit-0 partner.  The analyzed pulse is rotated explicitly, and
the window overlaps enter the tail overlap by their moduli, which is
what the alignment makes them; so the stored family vectors may carry
arbitrary phases, and the tail overlap is real and nonnegative.

No state vector larger than one pulse is ever formed, so the only size
limit is on randomized campaigns, whose pulse count and truncation level
come from the command line: ``(2 * max_fock) ** max_pulses`` must not
exceed ``MAX_STATE_DIM``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from typing import Mapping, Optional, Sequence

import numpy as np

from .security import (
    SecurityBounds,
    SourceCharacterization,
    _require_integer,
    a1_floor,
    plus_vac_floor,
    transfer_bound,
    vacuum_fidelity_bound,
)
from .sources import PhaseRotationModel

# Largest (2 * max_fock) ** max_pulses a campaign accepts.
MAX_STATE_DIM = 2**21
# Tolerance of every proof-chain inequality, and of the vacuum-overlap
# floor on random state pairs.
CHECK_TOL = 1e-9
FIDELITY_TOL = 1e-12


@dataclass(frozen=True)
class EmissionFamily:
    """Table of emitted states for a short pulse train.

    ``states`` maps ``(k, bit, history)`` to a unit vector of Fock
    amplitudes, where ``k`` is the 1-based pulse index, ``bit`` the encoded
    value, and ``history`` the most-recent-first tuple of the previous
    ``min(corr_len, k-1)`` bits.  Older bits never index the table, which
    is exactly the bounded-range correlation assumption.
    """

    n_pulses: int
    corr_len: int
    fock_dim: int
    states: Mapping[tuple[int, int, tuple[int, ...]], np.ndarray]
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.n_pulses < 1:
            raise ValueError(f"need at least one pulse, got {self.n_pulses}")
        if self.corr_len < 0:
            raise ValueError(f"correlation length must be >= 0, got {self.corr_len}")
        if self.n_pulses < self.corr_len + 1:
            raise ValueError(
                f"{self.n_pulses} pulses cannot realize correlation length "
                f"{self.corr_len}"
            )
        if self.fock_dim < 2:
            raise ValueError(f"Fock dimension must be >= 2, got {self.fock_dim}")
        for k in range(1, self.n_pulses + 1):
            w = self.window(k)
            for bit in (0, 1):
                for hist in product((0, 1), repeat=w):
                    key = (k, bit, hist)
                    if key not in self.states:
                        raise ValueError(f"state table is missing entry {key}")
                    vec = self.states[key]
                    if vec.shape != (self.fock_dim,):
                        raise ValueError(
                            f"state {key} has shape {vec.shape}, expected "
                            f"({self.fock_dim},)"
                        )
                    n = float(np.linalg.norm(vec))
                    if not abs(n - 1.0) <= 1e-12:
                        raise ValueError(f"state {key} is not normalized: |v|={n}")

    def window(self, k: int) -> int:
        """How many history bits the state of pulse k may depend on."""
        return min(self.corr_len, k - 1)

    def pulse_state(self, k: int, bit: int, history: Sequence[int]) -> np.ndarray:
        """Stored vector for pulse k; ``history`` may be longer than the
        window and is trimmed to the bits that actually matter."""
        if not 1 <= k <= self.n_pulses:
            raise ValueError(f"pulse index must lie in [1, {self.n_pulses}], got {k}")
        if bit not in (0, 1):
            raise ValueError(f"bit must be 0 or 1, got {bit}")
        w = self.window(k)
        if len(history) < w:
            raise ValueError(
                f"pulse {k} needs {w} history bits, got {len(history)}"
            )
        return self.states[(k, bit, tuple(int(b) for b in history[:w]))]


def _vacuum_aligned(vec: np.ndarray) -> np.ndarray:
    c = vec[0]
    if abs(c) < 1e-12:
        return vec
    return vec * (abs(c) / c)


def _check_analysis_args(family: EmissionFamily, t: int, history: Sequence[int]) -> None:
    if not 1 <= t <= family.n_pulses:
        raise ValueError(f"pulse index must lie in [1, {family.n_pulses}], got {t}")
    if t + family.corr_len > family.n_pulses:
        raise ValueError(
            f"analysis of pulse {t} needs {family.corr_len} later pulses, "
            f"only {family.n_pulses - t} available"
        )
    w = family.window(t)
    if len(history) != w:
        raise ValueError(f"pulse {t} takes {w} history bits, got {len(history)}")
    if any(b not in (0, 1) for b in history):
        raise ValueError("history bits must be 0 or 1")


def _tail_overlap(family: EmissionFamily, t: int, history: Sequence[int]) -> float:
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
    for i in range(1, min(family.corr_len, family.n_pulses - t) + 1):
        ov = np.empty((2,) * i)
        for bits in product((0, 1), repeat=i):
            v0, v1 = (
                family.pulse_state(t + i, bits[-1], bits[-2::-1] + (jt, *history))
                for jt in (0, 1)
            )
            ov[bits] = abs(np.vdot(v0, v1))
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
        worst = 1.0
        found = False
        for zeta in range(1, family.n_pulses + 1):
            w = family.window(zeta)
            if w < d:
                continue
            for bit in (0, 1):
                for hist in product((0, 1), repeat=w):
                    if hist[d - 1] != 1:
                        continue
                    partner = hist[: d - 1] + (0,) + hist[d:]
                    ov = abs(
                        np.vdot(
                            family.states[(zeta, bit, partner)],
                            family.states[(zeta, bit, hist)],
                        )
                    )
                    worst = min(worst, float(ov) ** 2)
                    found = True
        if not found:
            raise ValueError(f"no context realizes lag {d}")
        eps.append(min(1.0, max(0.0, 1.0 - worst)))
    p_vac = [1.0, 1.0]
    for (k, bit, hist), vec in family.states.items():
        p_vac[bit] = min(p_vac[bit], float(abs(vec[0]) ** 2))
    return SourceCharacterization(
        corr_len=family.corr_len, eps=tuple(eps), p_vac0=p_vac[0], p_vac1=p_vac[1]
    )


@dataclass(frozen=True)
class ProofChainCheck:
    """All inequalities of the bound derivation, evaluated on one family.

    The cap fields come from the (possibly overridden) characterization;
    the probability and overlap fields are exact state-vector quantities.
    Each ``ok_*`` flag compares one side of the chain at ``CHECK_TOL``.
    """

    n_pulses: int
    corr_len: int
    fock_dim: int
    t: int
    history: tuple[int, ...]
    minus_ref_cap: float
    fidelity_floor: float
    minus_act_cap: float
    p_minus_ref: float
    p_minus_act: float
    fidelity: float
    transfer_value: float
    a1: float
    a1_floor: float
    plus_vac_prob: float
    plus_vac_floor: float
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
    _check_analysis_args(family, t, history)
    char = characterization or measured_characterization(family)
    if char.corr_len != family.corr_len:
        raise ValueError("characterization correlation length mismatch")
    bounds = SecurityBounds.from_source(char)

    # Closed forms on the actual block (|0> b0 T0 + |1> b1 T1) / sqrt(2)
    # and the reference block, which carries T0 in both branches.
    b0, b1 = (_vacuum_aligned(family.pulse_state(t, jt, history)) for jt in (0, 1))
    g = _tail_overlap(family, t, history)
    base = complex(np.vdot(b0, b1))
    p_act = _probability((1.0 - base.real * g) / 2.0, "minus probability")
    p_ref = _probability((1.0 - base.real) / 2.0, "minus probability")
    plus_vac = _probability(abs(complex(b0[0] + b1[0])) ** 2 / 4.0, "joint probability")
    fid = (1.0 + g) / 2.0
    if fid > 1.0 + 1e-12:
        raise ArithmeticError(f"fidelity {fid} outside [0, 1] tolerance")
    fid = min(1.0, fid)
    return ProofChainCheck(
        n_pulses=family.n_pulses,
        corr_len=family.corr_len,
        fock_dim=family.fock_dim,
        t=t,
        history=tuple(int(b) for b in history),
        minus_ref_cap=bounds.minus_ref,
        fidelity_floor=bounds.fidelity,
        minus_act_cap=bounds.minus_act,
        p_minus_ref=p_ref,
        p_minus_act=p_act,
        fidelity=fid,
        transfer_value=transfer_bound(p_ref, fid),
        a1=min(1.0, g),
        a1_floor=a1_floor(char),
        plus_vac_prob=plus_vac,
        plus_vac_floor=plus_vac_floor(char),
        trial=trial,
        seed=family.seed,
    )


def _random_unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _vacuum_weighted_unit(
    rng: np.random.Generator, dim: int, weight: float
) -> np.ndarray:
    rest = rng.normal(size=dim - 1) + 1j * rng.normal(size=dim - 1)
    rest *= math.sqrt(1.0 - weight) / np.linalg.norm(rest)
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
    mostly exercises the trivial branch of the transferred cap.
    """
    if style not in ("perturbed", "free"):
        raise ValueError(f"unknown family style {style!r}")
    rng = np.random.default_rng(seed)
    states: dict[tuple[int, int, tuple[int, ...]], np.ndarray] = {}
    if style == "perturbed":
        base = {
            bit: _vacuum_weighted_unit(rng, fock_dim, rng.uniform(0.55, 0.95))
            for bit in (0, 1)
        }
        strength = 10.0 ** rng.uniform(-3.0, math.log10(0.6))
    for k in range(1, n_pulses + 1):
        w = min(corr_len, k - 1)
        for bit in (0, 1):
            for hist in product((0, 1), repeat=w):
                if style == "free":
                    vec = _random_unit(rng, fock_dim)
                else:
                    vec = base[bit] + strength * _random_unit(rng, fock_dim)
                    vec = vec / np.linalg.norm(vec)
                states[(k, bit, hist)] = vec
    return EmissionFamily(
        n_pulses=n_pulses,
        corr_len=corr_len,
        fock_dim=fock_dim,
        states=states,
        seed=seed,
    )


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
    model = PhaseRotationModel(mu=mu, delta=delta, corr_len=corr_len)
    states: dict[tuple[int, int, tuple[int, ...]], np.ndarray] = {}
    ns = np.arange(fock_dim)
    log_fact = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, fock_dim)))))
    for k in range(1, n_pulses + 1):
        w = min(corr_len, k - 1)
        for bit in (0, 1):
            for hist in product((0, 1), repeat=w):
                phase = sum(
                    model.rotation(lag) for lag, b in enumerate(hist, start=1) if b
                )
                alpha = (-1) ** bit * math.sqrt(mu) * np.exp(1j * phase)
                vec = np.power(alpha, ns) / np.exp(0.5 * log_fact)
                vec = vec / np.linalg.norm(vec)
                states[(k, bit, hist)] = vec.astype(complex)
    return EmissionFamily(
        n_pulses=n_pulses,
        corr_len=corr_len,
        fock_dim=fock_dim,
        states=states,
        seed=seed,
    )


@dataclass
class OracleCampaign:
    """Aggregated proof-chain trials, serializable one line per trial."""

    checks: list[ProofChainCheck] = field(default_factory=list)

    @property
    def n_trials(self) -> int:
        return len(self.checks)

    @property
    def n_failed(self) -> int:
        return sum(1 for c in self.checks if not c.passed)

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
    before the first trial, the largest family against ``MAX_STATE_DIM``.
    """
    for name, value in (
        ("n_trials", n_trials), ("max_pulses", max_pulses), ("max_fock", max_fock)
    ):
        _require_integer(name, value)
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    if max_pulses < 2:
        raise ValueError(f"max_pulses must be >= 2, got {max_pulses}")
    if max_fock < 6:
        # Coherent families keep at least 6 Fock levels.
        raise ValueError(f"max_fock must be >= 6, got {max_fock}")
    if eps_scale is not None and (
        isinstance(eps_scale, bool) or not 0.0 <= eps_scale < math.inf
    ):
        raise ValueError(f"eps_scale must be a finite number >= 0, got {eps_scale}")
    dim = (2 * max_fock) ** max_pulses
    if dim > MAX_STATE_DIM:
        raise ValueError(
            f"max_pulses={max_pulses}, max_fock={max_fock}: family dimension "
            f"{dim} exceeds MAX_STATE_DIM {MAX_STATE_DIM}"
        )
    campaign = OracleCampaign()
    for i in range(n_trials):
        ss = np.random.SeedSequence(entropy=seed, spawn_key=(i,))
        rng = np.random.default_rng(ss)
        fam_seed = int(ss.generate_state(1, np.uint32)[0])
        n = int(rng.integers(2, max_pulses + 1))
        lc = int(rng.integers(0, min(2, n - 1) + 1))
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
        history = tuple(int(b) for b in rng.integers(0, 2, size=min(lc, t - 1)))
        char = measured_characterization(fam)
        if eps_scale is not None:
            char = SourceCharacterization(
                corr_len=char.corr_len,
                eps=tuple(min(1.0, max(0.0, e * eps_scale)) for e in char.eps),
                p_vac0=char.p_vac0,
                p_vac1=char.p_vac1,
            )
        campaign.checks.append(
            check_proof_chain(fam, t, history, characterization=char, trial=i)
        )
    return campaign


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
    _require_integer("dim", dim)
    _require_integer("n_trials", n_trials)
    if dim < 2:
        raise ValueError(f"need dimension >= 2, got {dim}")
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
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
