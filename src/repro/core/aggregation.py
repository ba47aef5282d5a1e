"""Aggregation and noising (§3.6), including hierarchical trees.

After the final computation step, every block holds shares of its vertex's
contribution register. The aggregation step moves those shares to the
aggregation block ``B_A``, which evaluates — in MPC — the sum of all
contributions plus one draw of the output noise, and reveals only the
noised total.

With many vertices a single block becomes a bottleneck, so the paper
aggregates hierarchically: groups of ``fanout`` vertices feed partial-sum
blocks (no noise), whose outputs feed the root (noise added exactly once).
The Figure 6 projection assumes a two-level tree with fanout 100.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple, Union

from repro.crypto.rng import DeterministicRNG
from repro.exceptions import ProtocolError
from repro.sharing.xor import share_words

__all__ = ["reshare_words", "plan_groups", "partial_sum_width", "AggregationPlan"]


def reshare_words(
    words: Sequence[Tuple[Sequence[int], Sequence[int]]],
    bits: int,
    target_size: int,
    rng: DeterministicRNG,
    labels: Tuple[Union[str, int], ...],
) -> List[List[int]]:
    """Re-share XOR-shared words, each ``(holders, shares)``, to a block
    of ``target_size``: each holder splits every share it holds from one
    read of ``rng.derive(*labels, holder)``, and receiver ``q`` XORs the
    ``q``-th subshares of a word. The result is a fresh, independent
    sharing of each word — no member of either block learns anything,
    as long as each block has one honest member."""
    held: Dict[int, List[Tuple[int, int]]] = {}  # holder -> [(word, its share)]
    for index, (holders, shares) in enumerate(words):
        if not shares:
            raise ProtocolError("cannot reshare an empty share list")
        for holder, share in zip(holders, shares):
            held.setdefault(holder, []).append((index, share))
    received = [[0] * target_size for _ in words]
    for holder, pieces in held.items():
        splits = share_words([s for _, s in pieces], bits, target_size, rng.derive(*labels, holder))
        for (index, _), subshares in zip(pieces, splits):
            received[index] = [a ^ b for a, b in zip(received[index], subshares)]
    return received


def plan_groups(vertex_ids: Sequence[int], fanout: int) -> List[List[int]]:
    """Split vertices into aggregation groups of at most ``fanout``."""
    ids = list(vertex_ids)
    if len(ids) <= fanout:
        return [ids]
    return [ids[i : i + fanout] for i in range(0, len(ids), fanout)]


def partial_sum_width(value_bits: int, group_size: int) -> int:
    """Bit width that holds a sum of ``group_size`` signed values."""
    return value_bits + max(1, math.ceil(math.log2(group_size + 1)))


@dataclass(frozen=True)
class AggregationPlan:
    """The tree the engine will execute: groups plus width bookkeeping."""

    groups: List[List[int]]
    value_bits: int

    @property
    def is_hierarchical(self) -> bool:
        return len(self.groups) > 1

    @property
    def group_sum_bits(self) -> int:
        largest = max(len(g) for g in self.groups)
        return partial_sum_width(self.value_bits, largest)

    @property
    def root_inputs(self) -> int:
        return len(self.groups)

    @property
    def root_input_bits(self) -> int:
        return self.group_sum_bits if self.is_hierarchical else self.value_bits
