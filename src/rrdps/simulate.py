"""Monte Carlo runs of the interleaved-group protocol.

Blocks of ``(corr_len + 1) * group_size`` pulses are split into
``corr_len + 1`` interleaved groups so that pulses measured together are
spaced further apart than the correlation range.  Each group is measured
by a delayed-interference stage: with some success probability it yields
one sifted bit, the parity of two pulse bits at a uniformly random delay,
flipped with the configured channel error probability.

Randomness is drawn from counter-keyed streams in fixed-size chunks with
fixed shapes, so results are reproducible, independent of chunking, and a
longer run extends a shorter one with the same seed.  The record iterator
and the aggregate runner consume the same per-group draws and therefore
agree exactly.  The pulse bits have a stream of their own, which only the
record iterator draws: a flip decides an error whatever the bits are, so
the aggregate counts never read them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .security import (
    ProtocolConfig,
    SecurityBounds,
    binary_entropy,
    pa_fraction,
    phase_error_upper,
)
from .sources import _coherent_point

_CHUNK = 4096


def group_indices(block: int, group: int, corr_len: int, group_size: int) -> tuple[int, ...]:
    """Absolute 1-based pulse positions of one interleaved group.

    Within block ``block`` (1-based), group ``group`` (1-based, up to
    ``corr_len + 1``) collects every ``(corr_len + 1)``-th pulse starting
    at offset ``group``, so consecutive members are ``corr_len + 1`` apart.
    """
    if block < 1:
        raise ValueError(f"block index must be >= 1, got {block}")
    if not 1 <= group <= corr_len + 1:
        raise ValueError(f"group must lie in [1, {corr_len + 1}], got {group}")
    if group_size < 1:
        raise ValueError(f"group size must be >= 1, got {group_size}")
    stride = corr_len + 1
    base = (block - 1) * stride * group_size
    return tuple(base + stride * (m - 1) + group for m in range(1, group_size + 1))


@dataclass(frozen=True)
class GroupOutcome:
    """Measurement result of one group within one block."""

    group: int
    success: bool
    delay: Optional[int] = None
    first: Optional[int] = None   # absolute 1-based pulse index
    second: Optional[int] = None
    sent: Optional[int] = None    # parity of the two encoded bits
    measured: Optional[int] = None
    flipped: Optional[bool] = None


@dataclass(frozen=True)
class BlockRecord:
    block: int
    bits: tuple[int, ...]
    outcomes: tuple[GroupOutcome, ...]


def _stream(seed: int, key: int, chunk: int) -> np.random.Generator:
    # Key 0 draws the pulse bits, key w the draws of group w.
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(key, chunk)))
    )


def _chunks(
    cfg: ProtocolConfig, q_success: float, n_blocks: int, seed: int
) -> Iterator[tuple[int, int, list[dict[str, np.ndarray]]]]:
    # Yields (start, count, per-group draws).  All draws have the full
    # chunk shape regardless of count or success, which is what makes
    # results independent of n_blocks and chunk boundaries.
    size = cfg.group_size
    for c in range(0, (n_blocks + _CHUNK - 1) // _CHUNK):
        start = c * _CHUNK
        count = min(_CHUNK, n_blocks - start)
        groups = []
        for w in range(1, cfg.n_groups + 1):
            rng = _stream(seed, w, c)
            succ = rng.random(_CHUNK) < q_success
            delay = rng.integers(1, size, size=_CHUNK, dtype=np.int64)
            u = 1 + (rng.random(_CHUNK) * (size - delay)).astype(np.int64)
            flip = rng.random(_CHUNK) < cfg.e_bit
            groups.append({"succ": succ, "delay": delay, "u": u, "flip": flip})
        yield start, count, groups


def iter_block_records(
    cfg: ProtocolConfig, q_success: float, n_blocks: int, seed: int
) -> Iterator[BlockRecord]:
    """Per-block protocol transcript, mainly for inspection and tests."""
    stride = cfg.n_groups
    for start, count, groups in _chunks(cfg, q_success, n_blocks, seed):
        bits = _stream(seed, 0, start // _CHUNK).integers(
            0, 2, size=(_CHUNK, cfg.block_size), dtype=np.int8
        )
        for b in range(count):
            block = start + b + 1
            outcomes = []
            for w in range(1, cfg.n_groups + 1):
                g = groups[w - 1]
                if not g["succ"][b]:
                    outcomes.append(GroupOutcome(group=w, success=False))
                    continue
                delay = int(g["delay"][b])
                u = int(g["u"][b])
                rel1 = stride * (u - 1) + (w - 1)
                rel2 = stride * (u + delay - 1) + (w - 1)
                sent = int(bits[b, rel1] ^ bits[b, rel2])
                flipped = bool(g["flip"][b])
                base = (block - 1) * cfg.block_size
                outcomes.append(
                    GroupOutcome(
                        group=w,
                        success=True,
                        delay=delay,
                        first=base + rel1 + 1,
                        second=base + rel2 + 1,
                        sent=sent,
                        measured=sent ^ int(flipped),
                        flipped=flipped,
                    )
                )
            yield BlockRecord(
                block=block,
                bits=tuple(int(x) for x in bits[b]),
                outcomes=tuple(outcomes),
            )


@dataclass(frozen=True)
class SimResult:
    """Aggregate outcome of a simulated session with its extracted key size."""

    n_blocks: int
    seed: int
    group_size: int
    corr_len: int
    q_success: float
    n_success: tuple[int, ...]
    n_errors: tuple[int, ...]
    q_hat: tuple[float, ...]
    e_bit_hat: float
    f_ec: float
    e_ph_upper: tuple[float, ...]
    f_pa: tuple[float, ...]
    key_length: int

    @property
    def n_groups(self) -> int:
        return self.corr_len + 1

    @property
    def block_size(self) -> int:
        return self.n_groups * self.group_size

    @property
    def rate_per_pulse(self) -> float:
        return self.key_length / (self.n_blocks * self.block_size)


def run_simulation(
    cfg: ProtocolConfig,
    bounds: SecurityBounds,
    q_success: float,
    n_blocks: int,
    seed: int,
) -> SimResult:
    """Simulate a session and size the extractable key from its counts.

    Error correction is priced at the observed error rate (or the fixed
    override), privacy amplification at the phase-error bound evaluated on
    each group's observed success rate.  Groups without successes
    contribute nothing.  The final length is clamped at zero and floored
    to an integer.
    """
    if not 0.0 <= q_success <= 1.0:
        raise ValueError(f"success probability must lie in [0, 1], got {q_success}")
    if n_blocks < 1:
        raise ValueError(f"need at least one block, got {n_blocks}")
    n_success = np.zeros(cfg.n_groups, dtype=np.int64)
    n_errors = np.zeros(cfg.n_groups, dtype=np.int64)
    for _start, count, groups in _chunks(cfg, q_success, n_blocks, seed):
        # A flip always turns the sifted parity into an error, so the
        # counts need only the success and flip draws.
        for w in range(1, cfg.n_groups + 1):
            g = groups[w - 1]
            succ = g["succ"][:count]
            flipped = g["flip"][:count]
            n_success[w - 1] += int(np.count_nonzero(succ))
            n_errors[w - 1] += int(np.count_nonzero(succ & flipped))
    total_suc = int(n_success.sum())
    total_err = int(n_errors.sum())
    e_hat = total_err / total_suc if total_suc > 0 else 0.0
    if cfg.f_ec_mode == "fixed":
        f_ec = cfg.f_ec()
    else:
        f_ec = binary_entropy(e_hat)
    q_hat = tuple(float(n) / n_blocks for n in n_success)
    e_ph = []
    f_pa = []
    secret = 0.0
    for w in range(cfg.n_groups):
        if n_success[w] == 0:
            e_ph.append(1.0)
            f_pa.append(1.0)
            continue
        e = phase_error_upper(cfg.group_size, bounds.minus_act, q_hat[w])
        f = pa_fraction(e)
        e_ph.append(e)
        f_pa.append(f)
        secret += n_success[w] * (1.0 - f_ec - f)
    return SimResult(
        n_blocks=n_blocks,
        seed=seed,
        group_size=cfg.group_size,
        corr_len=cfg.corr_len,
        q_success=q_success,
        n_success=tuple(int(n) for n in n_success),
        n_errors=tuple(int(n) for n in n_errors),
        q_hat=q_hat,
        e_bit_hat=e_hat,
        f_ec=f_ec,
        e_ph_upper=tuple(e_ph),
        f_pa=tuple(f_pa),
        key_length=int(math.floor(max(0.0, secret))),
    )


def simulate_coherent(
    group_size: int,
    corr_len: int,
    delta: float,
    e_bit: float,
    eta: float,
    mu: float,
    n_blocks: int,
    seed: int,
    f_ec_mode: str = "shannon",
    f_ec_fixed: Optional[float] = None,
) -> SimResult:
    """Convenience wrapper wiring the phase-rotation source into a run."""
    cfg = ProtocolConfig(
        group_size=group_size,
        corr_len=corr_len,
        e_bit=e_bit,
        f_ec_mode=f_ec_mode,
        f_ec_fixed=f_ec_fixed,
    )
    bounds, q = _coherent_point(cfg, delta, eta, mu)
    return run_simulation(cfg, bounds, q, n_blocks, seed)
