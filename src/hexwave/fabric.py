"""Simulated SPMD message-passing fabric with exact traffic accounting.

Ranks run as threads inside one process; every cross-rank data transfer
goes through point-to-point queues here and is counted (messages and
payload bytes, per rank and per phase).  Byte accounting is 16 bytes per
complex value and 8 per index; headers are ignored.  A watchdog turns a
missing participant into an error instead of a hang, and a failed rank
wakes every rank waiting on it.  A fabric is built on the run's row
bounds (``sparse.partition_rows``) and concatenation strategy, and is
the one holder of both: every stage reads its rows from
``fabric.dof_range`` and rebuilds replicated vectors with ``fabric.concat``.
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
    """The rank a receive waited on stopped on an error of its own."""


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
        self._barrier = threading.Barrier(ranks) if ranks > 1 else None
        self._lock = threading.Lock()
        self._phase = ["idle"] * ranks
        self._traffic: dict[tuple[int, str], list[int]] = {}   # [msgs, bytes]
        self._barrier_count = [0] * ranks
        self.barrier_collectives = 0
        self._shared: dict = {}
        self._combined: dict = {}
        self._allgather_seq = [0] * ranks

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
        return {"ranks": self.ranks, "per_rank": per_rank,
                "barrier_count_per_rank": list(self._barrier_count),
                "totals": totals}

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
        if payload is RankFailed:          # run_spmd's uncounted sentinel
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

    def barrier(self, rank: int) -> None:
        """No rank proceeds until all arrive; counted once per collective."""
        self._barrier_count[rank] += 1
        if self._barrier is None:
            self.barrier_collectives += 1
            return
        try:
            idx = self._barrier.wait(timeout=self.timeout)
        except threading.BrokenBarrierError:
            raise FabricTimeout(
                f"barrier broken while rank {rank} waited (deadlock?)") from None
        if idx == 0:
            self.barrier_collectives += 1

    def allgather_object(self, rank: int, obj, combine=list):
        """Shared-memory allgather: one object built from every rank's
        ``obj`` and handed to all ranks (simulation plumbing only).

        Each call is one barrier, counted as one barrier collective like
        any other; no messages or bytes are counted, and it never carries
        payload data of the counted algorithm phases.  After the barrier,
        the first rank to get the fabric lock calls ``combine`` once on
        the P objects in rank order, and every rank returns that same
        result object, so it must be treated as read-only.  Results are
        keyed by a per-rank sequence number and kept for the fabric's one
        run; the gathered inputs are dropped once combined.
        """
        seq = self._allgather_seq[rank]
        self._allgather_seq[rank] += 1
        self._shared[(seq, rank)] = obj
        self.barrier(rank)
        with self._lock:
            if seq not in self._combined:
                self._combined[seq] = combine(
                    [self._shared[(seq, q)] for q in range(self.ranks)])
                for q in range(self.ranks):
                    del self._shared[(seq, q)]
            return self._combined[seq]


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
            fabric._barrier.abort()
            for q in set(range(fabric.ranks)) - {r}:
                fabric._queues[q][r].put(RankFailed)    # wakes q's recv

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
