"""Incrementally maintained cluster-state indexes.

The centralized simulator used to answer "which machines have a free
slot?" by scanning the whole machine list — an O(machines) walk on every
dispatch iteration that capped it far below the 20k-slot regime the
decentralized path already reaches. Following the self-adjusting-
structure idea (keep the index consistent under updates instead of
rescanning), :class:`ClusterIndex` maintains a Fenwick tree over machine
ids with a set bit for every machine that currently has a free slot:

* ``free_machine_count`` — O(1);
* ``nth_free_machine(k)`` — the k-th free machine *in ascending
  machine-id order*, O(log machines) via binary descent;
* ``set_machine(machine_id, is_free)`` — O(log machines), no-op when
  the bit is unchanged;
* ``append_machine()`` — one new free bit, O(log machines).

Ascending-id enumeration order is load-bearing: it makes
``nth_free_machine(rng.randrange(count))`` consume the same entropy and
return the same machine as ``rng.choice`` over an ascending scan of
the free machines, so replays are bit-identical to the scan-based
simulator (see ``tests/test_golden_results.py``).

Per-job indexes (pending-task locality buckets, running-copy counters)
live on :class:`repro.runtime.JobRuntime`; this module owns the
cluster-wide machine index.
"""

from __future__ import annotations

from typing import List, Optional


class ClusterIndex:
    """Fenwick-tree free-slot index over machine ids.

    The index starts with every machine free and is only ever updated
    by deltas: :class:`repro.cluster.cluster.Cluster` flips one bit when
    a machine fills, frees a slot, is evicted, reinstated or retired,
    and appends one bit per added machine.
    """

    __slots__ = ("_size", "_tree", "_bits", "_top_bit", "free_machine_count")

    def __init__(self, num_machines: int) -> None:
        # All bits set: Fenwick node i covers the ids (i - lowbit(i), i],
        # so tree[i] = lowbit(i) = i & -i. The lowbit sequence doubles as
        # L(2^(k+1)) = L(2^k) + [2^k] + L(2^k)[1:], built in log steps.
        tree = [0]
        while len(tree) <= num_machines:
            tree = tree + [len(tree)] + tree[1:]
        del tree[num_machines + 1:]
        self._tree = tree
        self._bits = [1] * num_machines
        self._size = num_machines
        self._top_bit = (
            1 << (num_machines.bit_length() - 1) if num_machines else 0
        )
        self.free_machine_count = num_machines

    # -- updates ------------------------------------------------------------

    def _prefix(self, count: int) -> int:
        """Sum of the first ``count`` bits (O(log machines))."""
        tree = self._tree
        total = 0
        while count:
            total += tree[count]
            count -= count & -count
        return total

    def append_machine(self) -> None:
        """Extend the index by one free machine id (O(log machines)).

        The new Fenwick node's value is the bit-sum of the id range it
        covers, recoverable from prefix sums over the existing tree.
        """
        j = self._size + 1
        span_start = j - (j & -j)
        self._tree.append(self._prefix(j - 1) - self._prefix(span_start) + 1)
        self._bits.append(1)
        self._size = j
        self._top_bit = 1 << (j.bit_length() - 1)
        self.free_machine_count += 1

    def set_machine(self, machine_id: int, is_free: bool) -> None:
        """Record that ``machine_id`` gained/lost its last free slot."""
        bit = 1 if is_free else 0
        bits = self._bits
        if bits[machine_id] == bit:
            return
        bits[machine_id] = bit
        delta = 1 if bit else -1
        self.free_machine_count += delta
        tree = self._tree
        size = self._size
        j = machine_id + 1
        while j <= size:
            tree[j] += delta
            j += j & -j

    # -- queries ------------------------------------------------------------

    def nth_free_machine(self, k: int) -> int:
        """Id of the k-th (0-based) free machine in ascending-id order."""
        if not 0 <= k < self.free_machine_count:
            raise IndexError(
                f"free-machine index {k} out of range "
                f"(count={self.free_machine_count})"
            )
        tree = self._tree
        size = self._size
        pos = 0
        remaining = k + 1
        bit = self._top_bit
        while bit:
            nxt = pos + bit
            if nxt <= size and tree[nxt] < remaining:
                pos = nxt
                remaining -= tree[nxt]
            bit >>= 1
        return pos

    def first_free_machine(self) -> Optional[int]:
        """Lowest-id machine with a free slot, or None."""
        if not self.free_machine_count:
            return None
        return self.nth_free_machine(0)

    def free_machine_ids(self) -> List[int]:
        """All free machine ids, ascending."""
        return [i for i, bit in enumerate(self._bits) if bit]

    def __len__(self) -> int:
        return self._size
