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
from typing import List, Sequence

from repro.crypto.rng import DeterministicRNG
from repro.exceptions import ProtocolError
from repro.sharing.xor import share_value

__all__ = ["reshare_word", "plan_groups", "partial_sum_width", "AggregationPlan"]


def reshare_word(
    share_words: Sequence[int],
    bits: int,
    target_size: int,
    rng: DeterministicRNG,
) -> List[int]:
    """Re-share an XOR-shared word from one block to another.

    Each holder splits its share into ``target_size`` subshares; receiver
    ``q`` XORs the ``q``-th subshare from every holder. The result is a
    fresh, independent sharing of the same word — no member of either
    block learns anything, as long as each block has one honest member.
    """
    if not share_words:
        raise ProtocolError("cannot reshare an empty share list")
    received = [0] * target_size
    for word in share_words:
        subshares = share_value(word, bits, target_size, rng)
        for q, subshare in enumerate(subshares):
            received[q] ^= subshare
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
