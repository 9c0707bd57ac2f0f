"""Exact small-system verification of the security-bound derivation.

For short pulse trains this module builds the full entangled state of the
encoding step on dense vectors (one ancilla qubit plus one truncated Fock
mode per pulse), conditions it on encoding outcomes, splits the influence
of a bit on later pulses into a retained component and an orthogonal side
channel, and checks every inequality the analytic bounds rest on, with
explicit tolerances, against randomized and coherent source families.

Checks are evaluated on the phase-canonical form of the states: each
emitted state is only defined up to a global phase, and the bounds hold
for the purification in which the vacuum amplitude of the analyzed pulse
is real nonnegative and the overlaps between near-history variants are
phase aligned.  The canonicalization is applied here explicitly, so the
stored family vectors may carry arbitrary phases.

States are dense vectors filled by indexed outer products of the pulse
vectors, since every ancilla factor is a basis vector and only picks an index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from itertools import product
from typing import Mapping, Optional, Sequence

import numpy as np

from .security import (
    SourceCharacterization,
    fidelity_bound,
    minus_act_bound,
    minus_ref_bound,
    transfer_bound,
    vacuum_fidelity_bound,
)

# Dense joint vectors above this total dimension are rejected.
MAX_STATE_DIM = 2**21


def _check_dense(fock_dim: int, n_pulses: int, what: str = "joint state") -> None:
    # Each pulse carries a qubit ancilla and a Fock mode.
    total = (2 * fock_dim) ** n_pulses
    if total > MAX_STATE_DIM:
        raise ValueError(
            f"{what} of dimension {total} exceeds the dense budget {MAX_STATE_DIM}"
        )


@dataclass(frozen=True)
class Subsystem:
    kind: str  # "qubit" or "fock"
    dim: int
    label: str

    def __post_init__(self) -> None:
        if self.kind not in ("qubit", "fock"):
            raise ValueError(f"unknown subsystem kind {self.kind!r}")
        if self.kind == "qubit" and self.dim != 2:
            raise ValueError("qubit subsystems have dimension 2")
        if self.dim < 2:
            raise ValueError(f"subsystem dimension must be >= 2, got {self.dim}")


@dataclass(frozen=True)
class JointState:
    """Dense state vector over an ordered list of small subsystems."""

    amplitudes: np.ndarray
    layout: tuple[Subsystem, ...]

    def __post_init__(self) -> None:
        expected = math.prod(s.dim for s in self.layout)
        if self.amplitudes.shape != (expected,):
            raise ValueError(
                f"amplitude vector has shape {self.amplitudes.shape}, layout "
                f"implies ({expected},)"
            )

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(s.dim for s in self.layout)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def overlap(self, other: "JointState") -> complex:
        if self.dims != other.dims:
            raise ValueError(f"layout mismatch: {self.dims} vs {other.dims}")
        return complex(np.vdot(self.amplitudes, other.amplitudes))


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
                    if abs(n - 1.0) > 1e-12:
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


def build_joint_state(family: EmissionFamily) -> JointState:
    """Full entangled state of the encoding step.

    One qubit ancilla holding each bit, tensored with the emitted pulse
    state conditioned on the preceding bits, summed uniformly over all bit
    strings.  The result is exactly normalized because ancilla basis states
    of different bit strings are orthogonal.
    """
    _check_dense(family.fock_dim, family.n_pulses)
    return _tail_state(_CanonicalStates(family, 0, enabled=False), 0, ())


def condition_on_z(state: JointState, assignments: Mapping[int, int]) -> JointState:
    """Project the given qubit subsystems onto Z outcomes and renormalize.

    ``assignments`` maps subsystem index (position in the layout) to the
    measured bit.  The measured subsystems are dropped from the result.
    Raises on a zero-probability assignment.
    """
    for idx, bit in assignments.items():
        if not 0 <= idx < len(state.layout):
            raise ValueError(f"no subsystem at index {idx}")
        if state.layout[idx].kind != "qubit":
            raise ValueError(f"subsystem {idx} is not a qubit")
        if bit not in (0, 1):
            raise ValueError(f"assignment for subsystem {idx} must be 0 or 1")
    arr = state.amplitudes.reshape(state.dims)
    indexer = tuple(
        assignments[i] if i in assignments else slice(None)
        for i in range(len(state.layout))
    )
    picked = np.ascontiguousarray(arr[indexer]).reshape(-1)
    norm = float(np.linalg.norm(picked))
    if norm < 1e-12:
        raise ValueError("assignment has zero probability on this state")
    layout = tuple(s for i, s in enumerate(state.layout) if i not in assignments)
    return JointState(amplitudes=picked / norm, layout=layout)


def minus_probability(state: JointState, index: int) -> float:
    """Probability of the X-basis minus outcome on one qubit subsystem."""
    if not 0 <= index < len(state.layout):
        raise ValueError(f"no subsystem at index {index}")
    if state.layout[index].kind != "qubit":
        raise ValueError(f"subsystem {index} is not a qubit")
    arr = np.moveaxis(state.amplitudes.reshape(state.dims), index, 0)
    minus = (arr[0] - arr[1]) / math.sqrt(2.0)
    p = float(np.linalg.norm(minus) ** 2)
    if not -1e-12 <= p <= 1.0 + 1e-12:
        raise ArithmeticError(f"minus probability {p} outside [0, 1] tolerance")
    return min(1.0, max(0.0, p))


def plus_vacuum_probability(state: JointState, qubit_index: int, fock_index: int) -> float:
    """Joint probability of X-basis plus on one qubit and vacuum on one mode."""
    if state.layout[qubit_index].kind != "qubit":
        raise ValueError(f"subsystem {qubit_index} is not a qubit")
    if state.layout[fock_index].kind != "fock":
        raise ValueError(f"subsystem {fock_index} is not a Fock mode")
    arr = state.amplitudes.reshape(state.dims)
    arr = np.moveaxis(arr, (qubit_index, fock_index), (0, 1))
    plus_vac = (arr[0, 0] + arr[1, 0]) / math.sqrt(2.0)
    p = float(np.linalg.norm(plus_vac) ** 2)
    if not -1e-12 <= p <= 1.0 + 1e-12:
        raise ArithmeticError(f"joint probability {p} outside [0, 1] tolerance")
    return min(1.0, max(0.0, p))


def _bit_at(pos: int, t: int, jt: int, history: Sequence[int], branch: Sequence[int]) -> int:
    # Bit encoded at absolute pulse position pos, given the branch bits for
    # pulses after t, the analyzed bit jt at t, and the history before t.
    if pos > t:
        return branch[pos - t - 1]
    if pos == t:
        return jt
    return history[t - 1 - pos]


def _vacuum_aligned(vec: np.ndarray) -> np.ndarray:
    c = vec[0]
    if abs(c) < 1e-12:
        return vec
    return vec * (abs(c) / c)


class _CanonicalStates:
    """Pulse-state lookup with the proof's phase conventions for pulse t.

    The analyzed pulse gets a real nonnegative vacuum amplitude; pulses in
    its forward correlation window are rotated so their overlap with the
    bit-0 counterpart is real nonnegative.  Later pulses are untouched.
    """

    def __init__(self, family: EmissionFamily, t: int, enabled: bool = True):
        self.family = family
        self.t = t
        self.enabled = enabled

    def pulse_state(self, k: int, bit: int, history: Sequence[int]) -> np.ndarray:
        fam = self.family
        vec = fam.pulse_state(k, bit, history)
        if not self.enabled:
            return vec
        if k == self.t:
            return _vacuum_aligned(vec)
        offset = k - self.t - 1  # position of the analyzed bit in the window
        w = fam.window(k)
        if 0 <= offset < w:
            hist = tuple(int(b) for b in history[:w])
            if hist[offset] == 1:
                partner = hist[:offset] + (0,) + hist[offset + 1:]
                x = complex(np.vdot(fam.pulse_state(k, bit, partner), vec))
                if abs(x) > 1e-12:
                    return vec * (abs(x) / x)
        return vec


def _layout(fock_dim: int, first: int, last: int) -> tuple[Subsystem, ...]:
    """Ancilla qubit and Fock mode of each pulse first..last, in order."""
    return tuple(
        sub
        for k in range(first, last + 1)
        for sub in (
            Subsystem("qubit", 2, f"A{k}"),
            Subsystem("fock", fock_dim, f"B{k}"),
        )
    )


def _tail_state(
    states: _CanonicalStates, jt: int, history: Sequence[int]
) -> JointState:
    """Uniform superposition over the bits of pulses after t, each carrying
    its ancilla qubit and emitted state, conditioned on jt and the history.

    Each ancilla is a basis vector, so a branch only fills the slice
    ``amp[b1, :, b2, :, ...]``, with the outer product of its pulse vectors
    taken left to right in pulse order.
    """
    fam, t = states.family, states.t
    n, f = fam.n_pulses, fam.fock_dim
    m = n - t
    amp = np.zeros((2, f) * m, dtype=complex)
    for branch in product((0, 1), repeat=m):
        pulses = []
        for zeta in range(t + 1, n + 1):
            w = fam.window(zeta)
            hist = tuple(
                _bit_at(zeta - 1 - i, t, jt, history, branch) for i in range(w)
            )
            pulses.append(states.pulse_state(zeta, branch[zeta - t - 1], hist))
        index = tuple(ix for b in branch for ix in (b, slice(None)))
        amp[index] = reduce(np.multiply.outer, pulses, np.ones((), dtype=complex))
    amp = amp.reshape(-1)
    amp /= math.sqrt(2**m)
    return JointState(amplitudes=amp, layout=_layout(f, t + 1, n))


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
    # The block state spans pulses t..n.
    _check_dense(family.fock_dim, family.n_pulses - t + 1)


def conditioned_state(
    family: EmissionFamily,
    t: int,
    history: Sequence[int],
    canonical: bool = True,
) -> JointState:
    """State of pulses t..n after the earlier bits came out as ``history``.

    With ``canonical=False`` this is exactly what conditioning the full
    joint state on the history yields; with ``canonical=True`` the phase
    conventions of the bound derivation are applied on top.
    """
    _check_analysis_args(family, t, history)
    states = _CanonicalStates(family, t, enabled=canonical)
    return _block_state(states, history, _tails(states, history))


def _tails(
    states: _CanonicalStates, history: Sequence[int]
) -> tuple[JointState, JointState]:
    return _tail_state(states, 0, history), _tail_state(states, 1, history)


def _block_state(
    states: _CanonicalStates,
    history: Sequence[int],
    tails: tuple[JointState, JointState],
) -> JointState:
    """Block state of pulses t..n whose bit-jt branch carries ``tails[jt]``."""
    fam, t = states.family, states.t
    amp = np.zeros((2, fam.fock_dim, tails[0].amplitudes.size), dtype=complex)
    for jt in (0, 1):
        base = states.pulse_state(t, jt, history)
        amp[jt] = np.multiply.outer(base, tails[jt].amplitudes)
    amp = amp.reshape(-1) / math.sqrt(2.0)
    return JointState(amplitudes=amp, layout=_layout(fam.fock_dim, t, fam.n_pulses))


@dataclass(frozen=True)
class SideChannelDecomposition:
    """Split of the post-t pulses into retained and leaked components.

    ``phi_ref`` is the bit-0 tail; the bit-j tail equals
    ``a_j * phi_ref + b_j * (orthogonal rest)`` with real nonnegative
    coefficients once phases are canonical.
    """

    a0: float
    a1: float
    b0: float
    b1: float
    phi_ref: JointState


def decompose_side_channel(
    family: EmissionFamily, t: int, history: Sequence[int]
) -> SideChannelDecomposition:
    """Project the actual tails onto the retained reference tail.

    Raises ``ArithmeticError`` if the reconstructed component norms drift
    from the projection coefficients by more than 1e-9.
    """
    _check_analysis_args(family, t, history)
    return _decompose(_tails(_CanonicalStates(family, t, enabled=True), history))


def _decompose(tails: tuple[JointState, JointState]) -> SideChannelDecomposition:
    phi = tails[0]
    coeffs = []
    for tail in tails:
        a_c = phi.overlap(tail)
        if abs(a_c.imag) > 1e-9:
            raise ArithmeticError(
                f"projection coefficient not phase aligned: {a_c}"
            )
        a = min(1.0, max(0.0, a_c.real))
        residual = tail.amplitudes - a * phi.amplitudes
        # b is the residual norm itself; near a = 1 the closed form
        # sqrt(1 - a^2) would amplify rounding error by eight orders.
        b = float(np.linalg.norm(residual))
        if abs(a * a + b * b - 1.0) > 1e-9:
            raise ArithmeticError(
                f"side-channel reconstruction off: a={a}, b={b}"
            )
        if b > 1e-6:
            cross = abs(np.vdot(phi.amplitudes, residual / b))
            if cross > 1e-9:
                raise ArithmeticError(
                    f"side channel not orthogonal to reference: {cross}"
                )
        coeffs.append((a, b))
    return SideChannelDecomposition(
        a0=coeffs[0][0], a1=coeffs[1][0], b0=coeffs[0][1], b1=coeffs[1][1],
        phi_ref=phi,
    )


def reference_state(
    family: EmissionFamily, t: int, history: Sequence[int]
) -> JointState:
    """Reference block state: actual pulse-t states, leakage-free tail."""
    _check_analysis_args(family, t, history)
    states = _CanonicalStates(family, t, enabled=True)
    phi = _tail_state(states, 0, history)
    return _block_state(states, history, (phi, phi))


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
    Each ``ok_*`` flag compares one side of the chain at tolerance ``tol``.
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
    tol: float = 1e-9
    trial: Optional[int] = None
    seed: Optional[int] = None

    @property
    def ok_ref_cap(self) -> bool:
        return self.p_minus_ref <= self.minus_ref_cap + self.tol

    @property
    def ok_plus_vac(self) -> bool:
        return self.plus_vac_prob >= self.plus_vac_floor - self.tol

    @property
    def ok_fidelity_floor(self) -> bool:
        return self.fidelity >= self.fidelity_floor - self.tol

    @property
    def ok_side_channel(self) -> bool:
        return self.a1 >= self.a1_floor - self.tol

    @property
    def ok_transfer(self) -> bool:
        return self.p_minus_act <= self.transfer_value + self.tol

    @property
    def ok_act_cap(self) -> bool:
        return self.p_minus_act <= self.minus_act_cap + self.tol

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
    tol: float = 1e-9,
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
    ref_cap = minus_ref_bound(char)
    fid_floor = fidelity_bound(char)
    act_cap = minus_act_bound(ref_cap, fid_floor)
    a1_floor = 1.0
    for e in char.eps:
        a1_floor *= math.sqrt(1.0 - e)

    # Both canonical tails are built once and shared by the actual block
    # state, the reference block state and the side-channel split.
    states = _CanonicalStates(family, t, enabled=True)
    tails = _tails(states, history)
    act = _block_state(states, history, tails)
    ref = _block_state(states, history, (tails[0], tails[0]))
    deco = _decompose(tails)

    p_act = minus_probability(act, 0)
    p_ref = minus_probability(ref, 0)
    fid = abs(ref.overlap(act))
    if fid > 1.0 + 1e-12:
        raise ArithmeticError(f"fidelity {fid} outside [0, 1] tolerance")
    fid = min(1.0, fid)
    plus_vac = plus_vacuum_probability(ref, 0, 1)
    root_sum = math.sqrt(char.p_vac0) + math.sqrt(char.p_vac1)
    return ProofChainCheck(
        n_pulses=family.n_pulses,
        corr_len=family.corr_len,
        fock_dim=family.fock_dim,
        t=t,
        history=tuple(int(b) for b in history),
        minus_ref_cap=ref_cap,
        fidelity_floor=fid_floor,
        minus_act_cap=act_cap,
        p_minus_ref=p_ref,
        p_minus_act=p_act,
        fidelity=fid,
        transfer_value=transfer_bound(p_ref, fid),
        a1=deco.a1,
        a1_floor=a1_floor,
        plus_vac_prob=plus_vac,
        plus_vac_floor=root_sum * root_sum / 4.0,
        tol=tol,
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

    Pulse amplitude ``(-1)^bit * sqrt(mu)`` picks up an extra phase
    ``delta / 2**(lag-1)`` for every 1-bit in the history at that lag.
    Vectors are truncated to ``fock_dim`` levels and renormalized; the
    default keeps the truncation error below 1e-9 for mu <= 0.3.
    """
    if mu < 0.0:
        raise ValueError(f"mean photon number must be >= 0, got {mu}")
    states: dict[tuple[int, int, tuple[int, ...]], np.ndarray] = {}
    ns = np.arange(fock_dim)
    log_fact = np.cumsum(np.concatenate(([0.0], np.log(np.arange(1, fock_dim)))))
    for k in range(1, n_pulses + 1):
        w = min(corr_len, k - 1)
        for bit in (0, 1):
            for hist in product((0, 1), repeat=w):
                phase = sum(
                    delta / 2 ** lag_idx
                    for lag_idx, b in enumerate(hist)
                    if b == 1
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

    seed: int
    tol: float
    checks: list[ProofChainCheck] = field(default_factory=list)
    eps_scale: Optional[float] = None

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
    tol: float = 1e-9,
    eps_scale: Optional[float] = None,
) -> OracleCampaign:
    """Randomized proof-chain verification over generated families.

    Mixes perturbed, free, and coherent families; pulse count, correlation
    length, truncation level, analyzed pulse, and history are all drawn per
    trial from a counter-keyed stream, so trials are reproducible and
    order independent.  ``eps_scale`` multiplies the measured per-lag
    deficits before the bounds are formed; values below 1 understate the
    correlations and must trip the checks.  Every argument is checked
    before the first trial, the largest family against the dense budget.
    """
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    if max_pulses < 2:
        raise ValueError(f"max_pulses must be >= 2, got {max_pulses}")
    if max_fock < 6:
        # Coherent families keep at least 6 Fock levels.
        raise ValueError(f"max_fock must be >= 6, got {max_fock}")
    if eps_scale is not None and not 0.0 <= eps_scale < math.inf:
        raise ValueError(f"eps_scale must be a finite number >= 0, got {eps_scale}")
    what = f"max_pulses={max_pulses}, max_fock={max_fock}: joint state"
    _check_dense(max_fock, max_pulses, what)
    campaign = OracleCampaign(seed=seed, tol=tol, eps_scale=eps_scale)
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
            check_proof_chain(
                fam, t, history, tol=tol, characterization=char, trial=i
            )
        )
    return campaign


@dataclass(frozen=True)
class FidelityPropositionResult:
    """Outcome of the vacuum-overlap floor check on random state pairs."""

    dim: int
    n_trials: int
    n_failed: int
    worst_margin: float
    seed: int
    tol: float

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
    dim: int, n_trials: int, seed: int, tol: float = 1e-12
) -> FidelityPropositionResult:
    """Check the overlap floor from vacuum weights on random state pairs.

    Half the pairs are biased toward large vacuum amplitude so the floor
    is nontrivial; the rest exercise the trivial branch.
    """
    if dim < 2:
        raise ValueError(f"need dimension >= 2, got {dim}")
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
        if margin < -tol:
            failed += 1
    return FidelityPropositionResult(
        dim=dim,
        n_trials=n_trials,
        n_failed=failed,
        worst_margin=worst,
        seed=seed,
        tol=tol,
    )
