"""Monte Carlo runs of the interleaved-group protocol.

Blocks of ``(corr_len + 1) * group_size`` pulses are split into
``corr_len + 1`` interleaved groups so that pulses measured together are
spaced further apart than the correlation range.  Each group is measured
by a delayed-interference stage: with some success probability it yields
one sifted bit, the parity of two pulse bits at a uniformly random delay,
flipped with the configured channel error probability.

Randomness is drawn from counter-keyed streams in fixed-size chunks with
fixed shapes, so results are reproducible, independent of chunking, and a
longer run extends a shorter one with the same seed.  Each group draws,
per chunk, success, delay, first position and flip from one Philox
stream.  The record iterator reads all four; the aggregate counts read
only success and flip, from the stream's raw words, and skip the delay
and position draws by advancing its counter, so they see the same values
and agree with the records exactly.  The pulse bits have a stream of
their own, which only the record iterator draws: a flip decides an error
whatever the bits are, so the aggregate counts never read them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .security import (
    ProtocolConfig,
    SourceCharacterization,
    _require,
    _require_integer,
    key_rate,
)
from .sources import _coherent_point

_CHUNK = 4096


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


def _full_draw(
    cfg: ProtocolConfig, q_success: float, seed: int, group: int, chunk: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    # (succ, delay, u, flip) of one group over one chunk.  All draws have
    # the full chunk shape regardless of the block count or of success,
    # which is what makes results independent of n_blocks and chunking.
    size = cfg.group_size
    rng = _stream(seed, group, chunk)
    succ = rng.random(_CHUNK) < q_success
    delay = rng.integers(1, size, size=_CHUNK, dtype=np.int64)
    u = 1 + (rng.random(_CHUNK) * (size - delay)).astype(np.int64)
    flip = rng.random(_CHUNK) < cfg.e_bit
    return succ, delay, u, flip


def _count_draw(
    cfg: ProtocolConfig, q_success: float, seed: int, group: int, chunk: int
) -> tuple[np.ndarray, np.ndarray]:
    # (succ, flip) equal to those of _full_draw, read from raw words without
    # drawing delay and u.  numpy draws delay by Lemire's method from the
    # 32-bit halves of the _CHUNK // 2 words after succ's; a half x is
    # rejected, and costs further words, when (x * span) mod 2**32 is below
    # 2**32 mod span.  Without a rejection, succ and delay end on a Philox
    # counter step (four words) and u takes one word per value, so flip
    # starts _CHUNK // 4 steps later.  Any rejection, or a span too wide for
    # 32-bit halves, takes the full draw.
    span = cfg.group_size - 1
    bitgen = _stream(seed, group, chunk).bit_generator
    words = bitgen.random_raw(_CHUNK + _CHUNK // 2)
    if span < 1 << 32:
        halves = words[_CHUNK:].view(np.uint32) * np.uint32(span)  # mod 2**32
        if halves.min() >= (1 << 32) % span:
            bitgen.advance(_CHUNK // 4)
            flip_words = bitgen.random_raw(_CHUNK)
            return _below(words[:_CHUNK], q_success), _below(flip_words, cfg.e_bit)
    succ, _delay, _u, flip = _full_draw(cfg, q_success, seed, group, chunk)
    return succ, flip


def _below(words: np.ndarray, p: float) -> np.ndarray:
    # Generator.random() < p for the doubles drawn from these words: each is
    # (word >> 11) * 2**-53, and scaling by 2**53 is exact.
    return (words >> 11) < math.ceil(p * 2**53)


def _check_run_args(q_success: float, n_blocks: int, seed: int) -> None:
    _require(q_success, "q_success must lie in [0, 1], got {}")
    _require_integer("n_blocks", n_blocks, 1)
    _require_integer("seed", seed, 0)


def iter_block_records(
    cfg: ProtocolConfig, q_success: float, n_blocks: int, seed: int
) -> Iterator[BlockRecord]:
    """Per-block protocol transcript, mainly for inspection and tests; the
    arguments are checked as by :func:`run_simulation` when iteration starts."""
    _check_run_args(q_success, n_blocks, seed)
    stride = cfg.n_groups
    for c, start in enumerate(range(0, n_blocks, _CHUNK)):
        draws = [
            _full_draw(cfg, q_success, seed, w, c) for w in range(1, cfg.n_groups + 1)
        ]
        bits = _stream(seed, 0, c).integers(
            0, 2, size=(_CHUNK, cfg.block_size), dtype=np.int8
        )
        for b in range(min(_CHUNK, n_blocks - start)):
            block = start + b + 1
            outcomes = []
            for w, (succ, delays, us, flips) in enumerate(draws, start=1):
                if not succ[b]:
                    outcomes.append(GroupOutcome(group=w, success=False))
                    continue
                delay = int(delays[b])
                u = int(us[b])
                rel1 = stride * (u - 1) + (w - 1)
                rel2 = stride * (u + delay - 1) + (w - 1)
                sent = int(bits[b, rel1] ^ bits[b, rel2])
                flipped = bool(flips[b])
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
    """Aggregate outcome of a session of protocol ``cfg`` and its extracted key size."""

    cfg: ProtocolConfig
    n_blocks: int
    seed: int
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
    def rate_per_pulse(self) -> float:
        return self.key_length / (self.n_blocks * self.cfg.block_size)


def run_simulation(
    cfg: ProtocolConfig,
    source: SourceCharacterization,
    q_success: float,
    n_blocks: int,
    seed: int,
) -> SimResult:
    """Simulate a session and size the extractable key from its counts.

    Error correction is priced at the observed error rate (or at
    ``cfg.f_ec_fixed``), privacy amplification at the per-group bounds
    that ``key_rate`` gives for ``source`` at the observed success rates
    ``q_hat``.
    Groups without successes contribute nothing.  The final length is
    clamped at zero and floored to an integer; the result keeps ``cfg``.
    """
    _check_run_args(q_success, n_blocks, seed)
    n_success = np.zeros(cfg.n_groups, dtype=np.int64)
    n_errors = np.zeros(cfg.n_groups, dtype=np.int64)
    for c, start in enumerate(range(0, n_blocks, _CHUNK)):
        count = min(_CHUNK, n_blocks - start)
        # A flip always turns the sifted parity into an error, so the
        # counts need only the success and flip draws.
        for w in range(cfg.n_groups):
            succ, flip = _count_draw(cfg, q_success, seed, w + 1, c)
            succ = succ[:count]
            n_success[w] += int(np.count_nonzero(succ))
            n_errors[w] += int(np.count_nonzero(succ & flip[:count]))
    total_suc = int(n_success.sum())
    total_err = int(n_errors.sum())
    e_hat = total_err / total_suc if total_suc > 0 else 0.0
    f_ec = cfg.f_ec(e_hat)
    q_hat = tuple(float(n) / n_blocks for n in n_success)
    per_group = key_rate(cfg, source, q_hat).per_group
    secret = 0.0
    for n, g in zip(n_success.tolist(), per_group):
        # A dark group adds an exact zero, as f_ec is finite.
        secret = secret + n * (1.0 - f_ec - g.f_pa)
    return SimResult(
        cfg=cfg,
        n_blocks=n_blocks,
        seed=seed,
        q_success=q_success,
        n_success=tuple(int(n) for n in n_success),
        n_errors=tuple(int(n) for n in n_errors),
        q_hat=q_hat,
        e_bit_hat=e_hat,
        f_ec=f_ec,
        e_ph_upper=tuple(g.e_ph_upper for g in per_group),
        f_pa=tuple(g.f_pa for g in per_group),
        key_length=int(math.floor(max(0.0, secret))),
    )


def simulate_coherent(
    cfg: ProtocolConfig, delta: float, eta: float, mu: float, n_blocks: int, seed: int
) -> SimResult:
    """A session of protocol ``cfg`` on the phase-rotation source at ``delta``,
    ``eta`` and ``mu``, with the characterization and click rate that
    ``rate_at_mu`` uses."""
    source, q = _coherent_point(cfg, delta, eta, mu)
    return run_simulation(cfg, source, q, n_blocks, seed)
