"""Simulated SPMD message-passing fabric with exact traffic accounting.

Ranks run as threads inside one process; every cross-rank data transfer
goes through point-to-point queues here and is counted (messages and
payload bytes, per rank and per phase).  Byte accounting is 16 bytes per
complex value and 8 per index; headers are ignored.  A watchdog turns a
missing participant into an error instead of a hang.
"""
from __future__ import annotations

import queue
import threading
import traceback
from dataclasses import asdict, dataclass

import numpy as np

from .sparse import SparseVector, COMPLEX_BYTES, INDEX_BYTES


class FabricError(RuntimeError):
    pass


class FabricTimeout(FabricError):
    """A collective participant failed to show up within the bounded wait."""


@dataclass
class MessageCounters:
    """Per-phase traffic snapshot for one rank."""
    phase: str
    messages: int = 0
    bytes: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


def payload_bytes(payload) -> int:
    """Accounting size of a message payload."""
    if isinstance(payload, SparseVector):
        return payload.payload_bytes()
    if isinstance(payload, np.ndarray):
        if np.issubdtype(payload.dtype, np.complexfloating):
            return COMPLEX_BYTES * payload.size
        if np.issubdtype(payload.dtype, np.floating):
            return COMPLEX_BYTES // 2 * payload.size
        return INDEX_BYTES * payload.size
    if isinstance(payload, (tuple, list)):
        return sum(payload_bytes(p) for p in payload)
    if isinstance(payload, (int, float)):
        return INDEX_BYTES
    if isinstance(payload, complex):
        return COMPLEX_BYTES
    if payload is None:
        return 0
    raise TypeError(f"cannot account for payload of type {type(payload)}")


class CommFabric:
    """P simulated ranks with point-to-point sends, barriers and counters."""

    def __init__(self, ranks: int, timeout: float = 60.0):
        if ranks < 1:
            raise ValueError("need at least one rank")
        self.ranks = ranks
        self.timeout = timeout
        self._queues = [[queue.SimpleQueue() for _ in range(ranks)]
                        for _ in range(ranks)]      # [dst][src]
        self._barrier = threading.Barrier(ranks) if ranks > 1 else None
        self._lock = threading.Lock()
        self._phase = ["idle"] * ranks
        self._counters: dict[tuple[int, str], MessageCounters] = {}
        self._barrier_count = [0] * ranks
        self.barrier_collectives = 0
        self._shared: dict = {}
        self._combined: dict = {}
        self._allgather_seq = [0] * ranks

    # -- phases and counters -------------------------------------------------

    def set_phase(self, rank: int, label: str) -> None:
        self._phase[rank] = label

    def _count(self, rank: int, nbytes: int) -> None:
        key = (rank, self._phase[rank])
        with self._lock:
            c = self._counters.get(key)
            if c is None:
                c = self._counters[key] = MessageCounters(phase=self._phase[rank])
            c.messages += 1
            c.bytes += nbytes

    def counters_report(self) -> dict:
        """Snapshot: per-rank per-phase counters plus consistent totals."""
        with self._lock:
            per_rank: list[list[dict]] = [[] for _ in range(self.ranks)]
            for (rank, phase), c in sorted(self._counters.items(),
                                           key=lambda kv: (kv[0][0], kv[0][1])):
                per_rank[rank].append(c.as_dict())
        totals = {"messages": sum(c["messages"] for r in per_rank for c in r),
                  "bytes": sum(c["bytes"] for r in per_rank for c in r),
                  "barriers": self.barrier_collectives}
        return {"ranks": self.ranks, "per_rank": per_rank,
                "barrier_count_per_rank": list(self._barrier_count),
                "totals": totals}

    # -- point-to-point ------------------------------------------------------

    def send(self, src: int, dst: int, payload, nbytes: int | None = None) -> None:
        if src == dst:
            raise FabricError("a rank does not message itself")
        if nbytes is None:
            nbytes = payload_bytes(payload)
        self._count(src, nbytes)
        self._queues[dst][src].put(payload)

    def recv(self, dst: int, src: int):
        try:
            return self._queues[dst][src].get(timeout=self.timeout)
        except queue.Empty:
            raise FabricTimeout(
                f"rank {dst} waited {self.timeout}s for a message from rank "
                f"{src}") from None

    def broadcast(self, src: int, payload, nbytes: int | None = None) -> None:
        """P-1 point-to-point sends, ascending destination rank."""
        for dst in range(self.ranks):
            if dst != src:
                self.send(src, dst, payload, nbytes)

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


def spmd_concat(fabric: CommFabric, rank: int,
                partial: SparseVector) -> np.ndarray:
    """All-to-all concatenation: every rank broadcasts its sparse partial
    and sums all P of them in ascending rank order; P^2 - P messages."""
    fabric.broadcast(rank, partial)
    parts: list[SparseVector] = []
    for src in range(fabric.ranks):
        parts.append(partial if src == rank else fabric.recv(rank, src))
    total = np.zeros(partial.size, dtype=np.complex128)
    for p in parts:
        np.add.at(total, p.indices, p.values)
    return total


def master_slave_concat(fabric: CommFabric, rank: int,
                        partial: SparseVector) -> np.ndarray:
    """Master-slave concatenation: slaves send their sparse partials to
    rank 0, which sums in ascending rank order and broadcasts the dense
    result; 2(P - 1) messages, master payloads full-vector sized."""
    if rank == 0:
        total = np.zeros(partial.size, dtype=np.complex128)
        parts = [partial] + [fabric.recv(0, src)
                             for src in range(1, fabric.ranks)]
        for p in parts:
            np.add.at(total, p.indices, p.values)
        fabric.broadcast(0, total, nbytes=COMPLEX_BYTES * partial.size)
        return total
    fabric.send(rank, 0, partial)
    # Copy: the master broadcasts one array object to every thread.
    return fabric.recv(rank, 0).copy()


CONCAT_STRATEGIES = {"spmd": spmd_concat, "ms": master_slave_concat}


def run_spmd(ranks: int, fn, *args, fabric: CommFabric | None = None):
    """Run ``fn(fabric, rank, *args)`` on every rank; returns per-rank results.

    Rank 0 runs P=1 inline (no threads).  The first rank exception is
    re-raised after all workers stop.
    """
    if fabric is None:
        fabric = CommFabric(ranks)
    if fabric.ranks != ranks:
        raise ValueError("fabric rank count mismatch")
    if ranks == 1:
        return [fn(fabric, 0, *args)]
    results: list = [None] * ranks
    errors: list = [None] * ranks

    def worker(r):
        try:
            results[r] = fn(fabric, r, *args)
        except BaseException as exc:   # noqa: BLE001 - reported to caller
            errors[r] = (exc, traceback.format_exc())
            if fabric._barrier is not None:
                fabric._barrier.abort()

    threads = [threading.Thread(target=worker, args=(r,), name=f"rank{r}")
               for r in range(ranks)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    raised = [e for e in errors if e is not None]
    if raised:
        # Prefer the causal error over secondary broken-barrier fallout.
        primary = [e for e in raised if not isinstance(e[0], FabricTimeout)]
        raise (primary or raised)[0][0]
    return results
