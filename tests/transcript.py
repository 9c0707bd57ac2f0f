"""Per-block transcript of a simulated session: the full protocol whose
counts ``rrdps.simulate.run_simulation`` reproduces without drawing it.

Each block draws its pulse bits from the key-0 stream and, per group, the
success, delay, first position and flip of ``simulate._full_draw``; a
successful group measures the parity of two pulse bits at that delay,
flipped as drawn.  The tests check the counts, the golden block records
and the pair geometry against it.  It reaches the simulator's private
draws through the module, so that a test that patches them sees every
draw made here too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from rrdps import simulate as sim
from rrdps.security import ProtocolConfig


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


def iter_block_records(
    cfg: ProtocolConfig, q_success: float, n_blocks: int, seed: int
) -> Iterator[BlockRecord]:
    """The blocks of the session that ``run_simulation`` counts with the
    same arguments."""
    stride = cfg.n_groups
    for c, start in enumerate(range(0, n_blocks, sim._CHUNK)):
        draws = [
            sim._full_draw(cfg, q_success, seed, w, c) for w in range(1, cfg.n_groups + 1)
        ]
        bits = sim._stream(seed, 0, c).integers(
            0, 2, size=(sim._CHUNK, cfg.block_size), dtype=np.int8
        )
        for b in range(min(sim._CHUNK, n_blocks - start)):
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
