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
stream, whose key a session derives, per window of chunks, in one array
pass equal to numpy's ``SeedSequence(entropy=seed, spawn_key=(group,
chunk))``.  The counts read only success and flip, from the stream's raw
words, and skip the delay and position draws by advancing its counter.
No pulse bits are drawn: a flip decides an error whatever the bits are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .security import (
    ProtocolConfig,
    SourceCharacterization,
    _require,
    _require_covered,
    _require_integer,
    key_rate,
)
from .sources import _coherent_point

_CHUNK = 4096
_KEY_WINDOW = 16  # chunks keyed per pass; 64 was no faster and took 0.3 MB more
# Every chunk index must fit the one 32-bit spawn word _stream_keys reads.
_MAX_BLOCKS = 2**44 - 1
_MASK = 0xFFFFFFFF


def _hash(word, consts: list):
    # SeedSequence's hash, with its running constant and multiplier in consts.
    xor = consts[0]
    consts[0] = xor * consts[1] & _MASK
    word = (word ^ xor) * consts[0] & _MASK
    return word ^ word >> 16


def _mix(x, y):
    # Each product is masked first, so that a Python int can meet an array.
    x = ((0xCA01F9DD * x & _MASK) - (0x4973F715 * y & _MASK)) & _MASK
    return x ^ x >> 16


def _stream_keys(seed: int, groups: np.ndarray, chunks: np.ndarray) -> np.ndarray:
    """``SeedSequence(entropy=seed, spawn_key=(group, chunk)).generate_state(2,
    np.uint64)`` for uint32 arrays ``groups`` and ``chunks`` broadcast
    together, by numpy's algorithm, on arrays only for the spawn words."""
    seed = int(seed)
    # The seed's 32-bit words, least significant first, padded to the
    # 4-word pool because a spawn key follows them.
    words = [seed >> s & _MASK for s in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (4 - len(words)) + [groups, chunks]
    consts = [0x43B0D7E5, 0x931E8875]
    pool = [_hash(word, consts) for word in words[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], consts))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], _hash(word, consts))
    consts = [0x8B51F9DD, 0x58F38DED]
    lo0, hi0, lo1, hi1 = (_hash(word, consts).astype(np.uint64) for word in pool)
    return np.stack([lo0 | hi0 << 32, lo1 | hi1 << 32], axis=-1)


def _stream(seed: int, key: int, chunk: int) -> np.random.Generator:
    # Key w feeds the draws of group w; key 0 is kept for the pulse bits,
    # which only the tests' per-block transcript draws.
    key = _stream_keys(seed, np.uint32([key]), np.uint32([chunk]))[0]
    return np.random.Generator(np.random.Philox(key=key))


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
    cfg: ProtocolConfig, q_success: float, bitgen: np.random.Philox, seed: int,
    group: int, chunk: int,
) -> tuple[np.ndarray, np.ndarray]:
    # (succ, flip) equal to those of _full_draw, read from raw words of the
    # stream's Philox bitgen without drawing delay and u.  numpy draws delay
    # by Lemire's method from the 32-bit halves of the _CHUNK // 2 words
    # after succ's; a half x is rejected, and costs further words, when
    # (x * span) mod 2**32 is below 2**32 mod span.  Without a rejection,
    # succ and delay end on a Philox counter step (four words) and u takes
    # one word per value, so flip starts _CHUNK // 4 steps later.  Any
    # rejection, or a span too wide for 32-bit halves, takes the full draw.
    span = cfg.group_size - 1
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
    # (word >> 11) * 2**-53, below p exactly when the word is below
    # ceil(p * 2**53) << 11, which overflows at p = 1, where all of them are.
    if p >= 1.0:
        return np.ones(words.shape, dtype=bool)
    return words < math.ceil(p * 2**53) << 11


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
    _require_covered(cfg, source)
    _require(q_success, "q_success must lie in [0, 1], got {}")
    _require_integer("n_blocks", n_blocks, 1, _MAX_BLOCKS)
    _require_integer("seed", seed, 0)
    n_success = np.zeros(cfg.n_groups, dtype=np.int64)
    n_errors = np.zeros(cfg.n_groups, dtype=np.int64)
    n_chunks = -(-n_blocks // _CHUNK)
    groups = np.arange(1, cfg.n_groups + 1, dtype=np.uint32)
    bitgen = np.random.Philox(key=0)
    start = bitgen.state  # counter 0 and an empty buffer, whatever the key
    for first in range(0, n_chunks, _KEY_WINDOW):
        chunks = np.arange(first, min(first + _KEY_WINDOW, n_chunks), dtype=np.uint32)
        keys = _stream_keys(seed, groups, chunks[:, None]).tolist()
        for c, chunk_keys in zip(chunks.tolist(), keys):
            count = min(_CHUNK, n_blocks - c * _CHUNK)
            # A flip always turns the sifted parity into an error, so the
            # counts need only the success and flip draws.
            for w, key in enumerate(chunk_keys):
                start["state"]["key"] = key
                bitgen.state = start
                succ, flip = _count_draw(cfg, q_success, bitgen, seed, w + 1, c)
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
