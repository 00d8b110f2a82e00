"""The RLEKF gather-and-split block strategy for the P matrix.

The error-covariance matrix P of a full EKF would be N x N (N = number of
weights); RLEKF [23] makes it block diagonal by walking the layers in
order and

* **gathering** consecutive small layers until adding the next one would
  exceed ``blocksize``;
* **splitting** any single layer larger than ``blocksize`` into chunks of
  at most ``blocksize`` (each chunk becomes its own block).

With the paper's network (26.5k params) and blocksize 10240 this yields
the block shapes reported in Sec. 5.3 ({1350, 10240, ~9800, ~5200}), which
the tests pin down.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Block:
    """A contiguous slice [start, stop) of the flat weight vector."""

    start: int
    stop: int

    @property
    def size(self) -> int:
        return self.stop - self.start

    def slice(self) -> slice:
        return slice(self.start, self.stop)


def split_blocks(layer_sizes: list[tuple[int, int]], blocksize: int) -> list[Block]:
    """Partition the flat weight vector into EKF blocks.

    ``layer_sizes`` is the ordered [(layer_id, size)] list from
    :meth:`repro.model.params.ParamStore.layer_sizes`; a layer is the
    smallest unit gathered (weights and bias stay together).
    """
    if blocksize < 1:
        raise ValueError("blocksize must be >= 1")
    blocks: list[Block] = []
    offset = 0
    acc_start = offset
    acc = 0
    for _, size in layer_sizes:
        if size > blocksize:
            # flush any gathered prefix
            if acc > 0:
                blocks.append(Block(acc_start, acc_start + acc))
            # split the big layer into chunks
            lo = offset
            while lo < offset + size:
                hi = min(lo + blocksize, offset + size)
                blocks.append(Block(lo, hi))
                lo = hi
            offset += size
            acc_start = offset
            acc = 0
            continue
        if acc + size > blocksize:
            blocks.append(Block(acc_start, acc_start + acc))
            acc_start = offset
            acc = 0
        acc += size
        offset += size
    if acc > 0:
        blocks.append(Block(acc_start, acc_start + acc))
    return blocks


def block_shapes(blocks: list[Block]) -> list[int]:
    return [b.size for b in blocks]


def validate_blocks(blocks: list[Block], total: int) -> None:
    """Assert the blocks exactly tile [0, total) (used by tests)."""
    pos = 0
    for b in blocks:
        if b.start != pos or b.stop <= b.start:
            raise AssertionError(f"blocks do not tile the weight vector at {pos}: {b}")
        pos = b.stop
    if pos != total:
        raise AssertionError(f"blocks cover {pos} of {total} weights")


def p_memory_bytes(blocks: list[Block], dtype_size: int = 8) -> int:
    """Total bytes of the block-diagonal P (the Sec. 5.3 accounting)."""
    return sum(b.size * b.size * dtype_size for b in blocks)


def shard_blocks(blocks: list[Block], n_shards: int) -> list[list[int]]:
    """Assign block indices to ``n_shards`` shards, balancing the
    per-shard sum(N_b^2) -- the cost of the symv/syr pair on each block
    -- by longest-processing-time greedy.  Ties go to the lowest shard,
    so the assignment is a pure function of the block sizes."""
    order = sorted(range(len(blocks)), key=lambda i: -blocks[i].size ** 2)
    loads = [0] * n_shards
    shards: list[list[int]] = [[] for _ in range(n_shards)]
    for i in order:
        r = min(range(n_shards), key=loads.__getitem__)
        shards[r].append(i)
        loads[r] += blocks[i].size ** 2
    return [sorted(s) for s in shards]
