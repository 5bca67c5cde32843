"""Simulated SPMD message-passing fabric with exact traffic accounting.

Ranks run as threads inside one process; every cross-rank data transfer
goes through point-to-point queues here and is counted (messages and
payload bytes, per rank and per phase).  Byte accounting is 16 bytes per
complex value and 8 per index; headers are ignored.  Ranks meet in one
generation-counted barrier (Mellor-Crummey & Scott, ACM TOCS 9(1), 1991),
which also hands every rank one replicated object.  A watchdog turns a
missing participant into an error instead of a hang, a failed rank wakes
every rank waiting on it, and a rank the barrier has released always
returns.  A fabric is built on the run's row bounds
(``sparse.partition_rows``) and concatenation strategy, and is the one
holder of both: every stage reads its rows from ``fabric.dof_range`` and
rebuilds replicated vectors with ``fabric.concat``.
"""
from __future__ import annotations

import queue
import threading

import numpy as np

from .sparse import COMPLEX_BYTES, INDEX_BYTES, SparseVector


class FabricError(RuntimeError):
    pass


class FabricTimeout(FabricError):
    """A collective participant failed to show up within the bounded wait."""


class RankFailed(FabricError):
    """A rank that a receive or barrier waited on stopped on an error."""


def payload_bytes(payload) -> int:
    """Accounting size of a message payload: a sparse vector, an array
    (16 B per complex entry, else 8 B), or a tuple or list of them."""
    if isinstance(payload, SparseVector):
        return payload.payload_bytes()
    if isinstance(payload, np.ndarray):
        if np.issubdtype(payload.dtype, np.complexfloating):
            return COMPLEX_BYTES * payload.size
        return INDEX_BYTES * payload.size
    if isinstance(payload, (tuple, list)):
        return sum(payload_bytes(p) for p in payload)
    raise TypeError(f"cannot account for payload of type {type(payload)}")


class CommFabric:
    """P ranks, with point-to-point sends, barriers and counters; rank r
    owns rows [row_starts[r], row_starts[r + 1]), and ``strategy`` names
    the run's entry of ``CONCAT_STRATEGIES``."""

    def __init__(self, row_starts: np.ndarray, strategy: str = "spmd",
                 timeout: float = 60.0):
        ranks = len(row_starts) - 1
        if ranks < 1:
            raise ValueError("need at least one rank")
        if strategy not in CONCAT_STRATEGIES:
            raise ValueError(f"unknown concat strategy {strategy!r}")
        self.row_starts = row_starts
        self.ranks = ranks
        self.strategy = strategy
        self.timeout = timeout
        self._queues = [[queue.SimpleQueue() for _ in range(ranks)]
                        for _ in range(ranks)]      # [dst][src]
        self._lock = threading.Condition()
        self._phase = ["idle"] * ranks
        self._traffic: dict[tuple[int, str], list[int]] = {}   # [msgs, bytes]
        self._arrived: dict[int, object] = {}     # rank -> obj, this barrier
        self._result = None                       # last finished barrier's
        self.barrier_collectives = 0              # finished barriers
        self._failed = False

    # -- row layout ----------------------------------------------------------

    def dof_range(self, rank: int) -> tuple[int, int]:
        return int(self.row_starts[rank]), int(self.row_starts[rank + 1])

    def owner_of_dof(self, dofs: np.ndarray) -> np.ndarray:
        """The rank owning each row of an array of rows."""
        return np.searchsorted(self.row_starts, dofs, side="right") - 1

    # -- phases and traffic --------------------------------------------------

    def set_phase(self, rank: int, label: str) -> None:
        self._phase[rank] = label

    def counters_report(self) -> dict:
        """Snapshot: per-rank per-phase counters plus consistent totals."""
        with self._lock:
            per_rank: list[list[dict]] = [[] for _ in range(self.ranks)]
            for (rank, phase), (msgs, nbytes) in sorted(self._traffic.items()):
                per_rank[rank].append({"phase": phase, "messages": msgs,
                                       "bytes": nbytes})
        totals = {"messages": sum(c["messages"] for r in per_rank for c in r),
                  "bytes": sum(c["bytes"] for r in per_rank for c in r),
                  "barriers": self.barrier_collectives}
        return {"ranks": self.ranks, "per_rank": per_rank, "totals": totals}

    # -- point-to-point ------------------------------------------------------

    def send(self, src: int, dst: int, payload) -> None:
        if src == dst:
            raise FabricError("a rank does not message itself")
        nbytes = payload_bytes(payload)
        with self._lock:
            c = self._traffic.setdefault((src, self._phase[src]), [0, 0])
            c[0] += 1
            c[1] += nbytes
        self._queues[dst][src].put(payload)

    def recv(self, dst: int, src: int):
        try:
            payload = self._queues[dst][src].get(timeout=self.timeout)
        except queue.Empty:
            raise FabricTimeout(
                f"rank {dst} waited {self.timeout}s for a message from rank "
                f"{src}") from None
        if payload is RankFailed:          # fail()'s uncounted sentinel
            raise RankFailed(f"rank {dst} waited for a message from rank "
                             f"{src}, which failed")
        return payload

    def broadcast(self, src: int, payload) -> None:
        """P-1 point-to-point sends, ascending destination rank."""
        for dst in range(self.ranks):
            if dst != src:
                self.send(src, dst, payload)

    def concat(self, rank: int, partial: SparseVector) -> np.ndarray:
        """The dense sum of every rank's partial, by the run's strategy
        (looked up per call, so the table's entries may be swapped)."""
        return CONCAT_STRATEGIES[self.strategy](self, rank, partial)

    # -- collectives ---------------------------------------------------------

    def barrier(self, rank: int, obj=None, combine=None):
        """No rank proceeds until all P arrive; counted once per collective.
        The last to arrive calls ``combine`` once on the P ranks' ``obj`` in
        rank order, and every rank returns that one result (``None``
        without a ``combine``).  A waiting rank asks whether its barrier
        finished before whether a rank failed, so a released rank returns.
        """
        with self._lock:
            done = self.barrier_collectives + 1
            self._arrived[rank] = obj
            if len(self._arrived) == self.ranks and not self._failed:
                parts = [self._arrived.pop(q) for q in range(self.ranks)]
                self._result = None if combine is None else combine(parts)
                self.barrier_collectives = done
                self._lock.notify_all()
            elif not self._lock.wait_for(
                    lambda: self.barrier_collectives == done or self._failed,
                    self.timeout):
                missing = sorted(set(range(self.ranks)) - set(self._arrived))
                raise FabricTimeout(f"rank {rank} waited {self.timeout}s at "
                                    f"barrier {done} for ranks {missing}")
            if self.barrier_collectives < done:
                raise RankFailed(f"rank {rank}, barrier {done}: a rank failed")
            return self._result  # stays until this rank arrives again

    def allgather_object(self, rank: int, obj, combine=list):
        """Shared-memory allgather (simulation plumbing only): one
        ``barrier`` with a ``combine``, counted as one barrier collective
        and no messages or bytes; it never carries payload data of the
        counted algorithm phases.  Every rank returns the same object, so
        it must be treated as read-only."""
        return self.barrier(rank, obj, combine)

    def fail(self, rank: int) -> None:
        """``rank`` stopped on an error: wake every barrier waiter and queue
        an uncounted sentinel to every other rank's receive from it."""
        with self._lock:
            self._failed = True
            self._lock.notify_all()
        for q in set(range(self.ranks)) - {rank}:
            self._queues[q][rank].put(RankFailed)


def _rank_order_sum(fabric: CommFabric, rank: int,
                    partial: SparseVector) -> np.ndarray:
    """Dense sum of every rank's sparse partial, this rank's own and the
    others' received, added in ascending rank order."""
    total = np.zeros(partial.size, dtype=np.complex128)
    for src in range(fabric.ranks):
        p = partial if src == rank else fabric.recv(rank, src)
        np.add.at(total, p.indices, p.values)
    return total


def spmd_concat(fabric: CommFabric, rank: int,
                partial: SparseVector) -> np.ndarray:
    """All-to-all concatenation: every rank broadcasts its sparse partial
    and sums all P of them in ascending rank order; P^2 - P messages."""
    fabric.broadcast(rank, partial)
    return _rank_order_sum(fabric, rank, partial)


def master_slave_concat(fabric: CommFabric, rank: int,
                        partial: SparseVector) -> np.ndarray:
    """Master-slave concatenation: slaves send their sparse partials to
    rank 0, which sums in ascending rank order and broadcasts the dense
    result, which every rank returns as one shared read-only array;
    2(P - 1) messages, master payloads full-vector sized."""
    if rank == 0:
        total = _rank_order_sum(fabric, 0, partial)
        total.flags.writeable = False
        fabric.broadcast(0, total)
        return total
    fabric.send(rank, 0, partial)
    return fabric.recv(rank, 0)


CONCAT_STRATEGIES = {"spmd": spmd_concat, "ms": master_slave_concat}


def run_spmd(fabric: CommFabric, fn):
    """Run ``fn(fabric, rank)`` on every rank; returns per-rank results.

    Rank 0 runs P=1 inline (no threads).  A failing rank aborts the
    fabric, and after all workers stop the first causal exception is
    re-raised in preference to the timeouts and ``RankFailed`` it caused.
    """
    if fabric.ranks == 1:
        return [fn(fabric, 0)]
    results: list = [None] * fabric.ranks
    errors: list = [None] * fabric.ranks

    def worker(r):
        try:
            results[r] = fn(fabric, r)
        except BaseException as exc:   # noqa: BLE001 - reported to caller
            errors[r] = exc
            fabric.fail(r)

    threads = [threading.Thread(target=worker, args=(r,), name=f"rank{r}")
               for r in range(fabric.ranks)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    raised = [e for e in errors if e is not None]
    if raised:
        raise min(raised, key=lambda e: isinstance(e, FabricTimeout)
                  + 2 * isinstance(e, RankFailed))
    return results
