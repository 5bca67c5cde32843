"""Message fabric: counting, barriers, concatenation strategies."""
from __future__ import annotations

import sys
import time

import numpy as np
import pytest

from hexwave.fabric import (CONCAT_STRATEGIES, CommFabric, FabricError,
                            FabricTimeout, RankFailed, master_slave_concat,
                            payload_bytes, run_spmd, spmd_concat)
from hexwave.sparse import (COMPLEX_BYTES, INDEX_BYTES, SparseVector,
                            partition_rows)

from conftest import fabric_of, phase_traffic


def test_payload_accounting_sparse_vector():
    sv = SparseVector.from_segment(0, np.array([1 + 1j, 0, 2.0]), 3)
    assert payload_bytes(sv) == 2 * (INDEX_BYTES + COMPLEX_BYTES)


def test_payload_accounting_arrays():
    assert payload_bytes(np.zeros(5, dtype=np.complex128)) == 80
    assert payload_bytes(np.zeros(5, dtype=np.float64)) == 40
    assert payload_bytes(np.zeros(5, dtype=np.int64)) == 40
    assert payload_bytes((np.zeros(2, np.int64),
                          np.zeros(2, np.complex128))) == 16 + 32


@pytest.mark.parametrize("payload", [3, 2.5, 1j, None, "text"])
def test_payload_accounting_rejects_non_array_payloads(payload):
    with pytest.raises(TypeError, match="cannot account for payload"):
        payload_bytes(payload)
    with pytest.raises(TypeError):
        payload_bytes((np.zeros(2, np.int64), payload))


@pytest.mark.parametrize("nodes, ranks", [(1, 1), (10, 3), (12, 4)])
def test_fabric_ranks_are_its_partitions(nodes, ranks):
    """A fabric holds one row partition's bounds and has its rank
    count."""
    starts = partition_rows(nodes, ranks)
    fab = CommFabric(starts)
    assert fab.row_starts is starts
    assert fab.ranks == len(starts) - 1 == ranks
    assert fab.strategy == "spmd"
    assert fab.counters_report()["ranks"] == ranks


@pytest.mark.parametrize("starts, strategy, message", [
    pytest.param([0], "spmd", "need at least one rank", id="starts0"),
    pytest.param([], "spmd", "need at least one rank", id="starts1"),
    pytest.param([0, 1], "ring", "unknown concat strategy 'ring'",
                 id="unknown-strategy"),
])
def test_fabric_rejects_bounds_without_a_rank(starts, strategy, message):
    """No rank, or a strategy not in ``CONCAT_STRATEGIES``, is refused."""
    with pytest.raises(ValueError, match=message):
        CommFabric(np.array(starts, dtype=np.int64), strategy)


def test_send_recv_counts_messages_and_bytes():
    fab = fabric_of(2)
    fab.set_phase(0, "demo")

    def fn(f, r):
        if r == 0:
            f.send(0, 1, np.zeros(3, dtype=np.complex128))
        else:
            f.recv(1, 0)

    run_spmd(fab, fn)
    rep = fab.counters_report()
    assert rep["totals"]["messages"] == 1
    assert rep["totals"]["bytes"] == 48
    assert rep["per_rank"][0][0]["phase"] == "demo"


def test_self_send_rejected():
    fab = fabric_of(2)
    with pytest.raises(FabricError):
        fab.send(0, 0, None)


def test_recv_timeout_is_error_not_hang():
    fab = fabric_of(2, timeout=0.05)
    t0 = time.monotonic()
    with pytest.raises(FabricTimeout):
        fab.recv(0, 1)
    assert time.monotonic() - t0 < 2.0


def test_barrier_releases_all_ranks_any_arrival_order():
    fab = fabric_of(4)
    order = []

    def fn(f, r):
        time.sleep(0.01 * (3 - r))       # staggered arrivals
        f.barrier(r)
        order.append(r)

    run_spmd(fab, fn)
    assert sorted(order) == [0, 1, 2, 3]
    assert fab.barrier_collectives == 1


def test_broken_barrier_reported():
    fab = fabric_of(2, timeout=0.1)

    def fn(f, r):
        if r == 0:
            f.barrier(r)         # rank 1 never arrives

    with pytest.raises(FabricTimeout):
        run_spmd(fab, fn)


def test_barrier_timeout_wakes_the_other_waiters():
    """Rank 2 never arrives: rank 0, first at the barrier, times out naming
    it, and rank 1, which arrived later, wakes with ``RankFailed`` instead
    of waiting out its own timeout."""
    caught = {}

    def fn(f, r):
        if r == 2:
            return
        time.sleep(0.3 * r)
        try:
            f.barrier(r)
        except FabricError as exc:
            caught[r] = exc
            raise

    with pytest.raises(FabricTimeout, match=r"^rank 0 waited 0\.5s at "
                       r"barrier 1 for ranks \[2\]$"):
        run_spmd(fabric_of(3, timeout=0.5), fn)
    assert type(caught[1]) is RankFailed
    assert str(caught[1]) == "rank 1, barrier 1: a rank failed"


def test_released_rank_returns_when_the_last_arrival_fails():
    """Rank 1 waits at a barrier; rank 0 arrives last, which releases rank
    1, and raises at once.  Rank 1's barrier still returns, and the error
    re-raised is rank 0's."""
    returned = []

    def fn(f, r):
        if r == 0:
            time.sleep(0.05)             # rank 1 is waiting by now
            f.barrier(r)
            raise RuntimeError("rank 0 boom")
        f.barrier(r)
        returned.append(r)

    with pytest.raises(RuntimeError, match="rank 0 boom"):
        run_spmd(fabric_of(2, timeout=60), fn)
    assert returned == [1]


def test_failing_combine_is_reraised_at_once():
    """A ``combine`` that raises in the last rank to arrive is the error
    re-raised, and the waiting ranks wake at once on a 60-s fabric."""
    def combine(parts):
        raise ValueError(f"combine boom {parts}")

    fab = fabric_of(3, timeout=60)
    t0 = time.monotonic()
    with pytest.raises(ValueError, match=r"combine boom \[0, 10, 20\]"):
        run_spmd(fab, lambda f, r: f.barrier(r, 10 * r, combine))
    assert time.monotonic() - t0 < 1.0
    assert fab.barrier_collectives == 0


@pytest.mark.parametrize("call", ["barrier", "allgather_object"])
def test_one_rank_meets_in_the_same_rendezvous(call):
    """At P = 1 a barrier and an allgather take the same path: the one
    rank finishes the collective, counted once, and gets the combine's
    result back."""
    fab = fabric_of(1)
    assert getattr(fab, call)(0, 7, lambda parts: parts + [8]) == [7, 8]
    assert fab.barrier_collectives == 1
    assert fab.barrier(0) is None
    assert fab.counters_report()["totals"]["barriers"] == 2


def _partials(ranks: int, n: int, seed: int = 3):
    rng = np.random.default_rng(seed)
    part = []
    per = n // ranks
    full = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    for r in range(ranks):
        part.append(SparseVector.from_segment(r * per,
                                              full[r * per:(r + 1) * per], n))
    return part, full


@pytest.mark.parametrize("ranks", [1, 2, 4, 8, 10])
def test_spmd_concat_message_count(ranks):
    """The strategy called directly, and ``fabric.concat`` on a fabric
    built with it."""
    parts, full = _partials(ranks, 10 * ranks)
    for fab, concat in ((fabric_of(ranks), spmd_concat),
                        (fabric_of(ranks, strategy="spmd"),
                         CommFabric.concat)):
        for r in range(ranks):
            fab.set_phase(r, "concat")
        out = run_spmd(fab, lambda f, r: concat(f, r, parts[r]))
        assert phase_traffic(fab, "concat")[0] == ranks * ranks - ranks
        for o in out:
            np.testing.assert_array_equal(o, full)


@pytest.mark.parametrize("ranks", [1, 2, 4, 8, 10])
def test_master_slave_concat_message_count(ranks, monkeypatch):
    """The strategy called directly, and ``fabric.concat`` on a fabric
    built with it, which looks its table entry up at each call, so a
    wrapper put in the table after the build (as perfbench's tracer
    does) still runs."""
    parts, full = _partials(ranks, 10 * ranks)
    built, calls = fabric_of(ranks, strategy="ms"), []

    def counted(f, r, partial):
        calls.append(r)
        return master_slave_concat(f, r, partial)

    monkeypatch.setitem(CONCAT_STRATEGIES, "ms", counted)
    for fab, concat in ((fabric_of(ranks), master_slave_concat),
                        (built, CommFabric.concat)):
        for r in range(ranks):
            fab.set_phase(r, "concat")
        out = run_spmd(fab, lambda f, r: concat(f, r, parts[r]))
        assert phase_traffic(fab, "concat")[0] == 2 * (ranks - 1)
        for o in out:
            np.testing.assert_array_equal(o, full)
    assert sorted(calls) == list(range(ranks))


def test_master_slave_result_is_one_shared_read_only_array():
    """Every rank returns the master's broadcast array itself, not a
    copy, and none can write into it."""
    parts, full = _partials(3, 12)
    out = run_spmd(fabric_of(3), lambda f, r: master_slave_concat(f, r,
                                                                   parts[r]))
    assert all(o is out[0] for o in out)
    np.testing.assert_array_equal(out[0], full)
    with pytest.raises(ValueError, match="read-only"):
        out[1][0] = 0.0


def test_master_broadcast_payload_is_dense():
    """The master's result broadcast is full-vector sized."""
    ranks, n = 3, 12
    fab = fabric_of(ranks)
    parts, _ = _partials(ranks, n)
    for r in range(ranks):
        fab.set_phase(r, "concat")
    run_spmd(fab, lambda f, r: master_slave_concat(f, r, parts[r]))
    rep = fab.counters_report()
    master = rep["per_rank"][0][0]
    assert master.get("bytes") == 2 * COMPLEX_BYTES * n  # two sends of n


def test_strategies_produce_identical_sums():
    """Same ascending-rank order, same floating-point result, bitwise."""
    ranks = 4
    rng = np.random.default_rng(11)
    n = 20
    # overlapping partials this time: order of summation matters
    parts = [SparseVector.from_segment(0, rng.standard_normal(n)
                                       + 1j * rng.standard_normal(n), n)
             for _ in range(ranks)]
    out_a = run_spmd(fabric_of(ranks),
                     lambda f, r: spmd_concat(f, r, parts[r]))
    out_b = run_spmd(fabric_of(ranks),
                     lambda f, r: master_slave_concat(f, r, parts[r]))
    for a, b in zip(out_a, out_b):
        assert np.array_equal(a, out_a[0])
        assert np.array_equal(a, b)


def test_allgather_object_uncounted():
    fab = fabric_of(3)
    out = run_spmd(fab, lambda f, r: f.allgather_object(r, r * 10))
    assert all(o == [0, 10, 20] for o in out)
    assert fab.counters_report()["totals"]["messages"] == 0
    assert fab.barrier_collectives == 1


def test_allgather_object_combines_once_into_one_shared_object():
    """Over several rounds on more rank threads than cores, ``combine``
    runs once per round, in rank order, and every rank gets its result."""
    calls = []
    rounds = 20

    def combine(parts):
        calls.append(list(parts))
        return {"sum": sum(parts)}

    def fn(f, r):
        return [f.allgather_object(r, 10 * k + r, combine)
                for k in range(rounds)]

    fab = fabric_of(4, timeout=30)
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        out = run_spmd(fab, fn)
    finally:
        sys.setswitchinterval(old_interval)
    assert calls == [[10 * k + r for r in range(4)] for k in range(rounds)]
    for k in range(rounds):
        assert out[0][k] is out[1][k] is out[2][k] is out[3][k]
        assert out[0][k] == {"sum": 40 * k + 6}
    assert fab.barrier_collectives == rounds
    assert fab.counters_report()["totals"]["messages"] == 0


def test_worker_exception_propagates():
    def fn(f, r):
        if r == 1:
            raise RuntimeError("worker boom")
        f.barrier(r)

    with pytest.raises(RuntimeError, match="worker boom"):
        run_spmd(fabric_of(3, timeout=5), fn)


@pytest.mark.parametrize("failed, first", [(0, 2), (2, 0)])
def test_failed_rank_unwinds_a_chain_of_waiting_ranks(failed, first):
    """One rank raises while ``first`` waits on it and rank 1 waits on
    ``first``: on a 60-s fabric both wake at once, no sentinel is counted,
    and the causal error, not the ``RankFailed`` it caused, is re-raised."""
    def fn(f, r):
        if r == failed:
            raise AssertionError(f"rank {r} boom")
        f.recv(r, failed if r == first else first)

    fab = fabric_of(3, timeout=60)
    t0 = time.monotonic()
    with pytest.raises(AssertionError, match=f"rank {failed} boom"):
        run_spmd(fab, fn)
    assert time.monotonic() - t0 < 1.0
    assert fab.counters_report()["totals"]["messages"] == 0


def test_receive_from_a_failed_rank_names_it():
    caught = []

    def fn(f, r):
        if r == 1:
            raise RuntimeError("worker boom")
        try:
            f.recv(r, 1)
        except RankFailed as exc:
            caught.append(str(exc))
            raise

    with pytest.raises(RuntimeError, match="worker boom"):
        run_spmd(fabric_of(2), fn)
    assert caught == ["rank 0 waited for a message from rank 1, which failed"]


def test_timeout_preferred_over_the_rank_failures_it_causes():
    """Rank 1 times out waiting on rank 0, which then receives from rank
    1 and fails with ``RankFailed``: the timeout is the error raised."""
    def fn(f, r):
        if r == 0:
            time.sleep(1.0)
        f.recv(r, 1 - r)

    with pytest.raises(FabricTimeout, match="rank 1 waited"):
        run_spmd(fabric_of(2, timeout=0.2), fn)
