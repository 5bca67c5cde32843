"""Message fabric: counting, barriers, concatenation strategies."""
from __future__ import annotations

import sys
import time

import numpy as np
import pytest

from hexwave.fabric import (CommFabric, FabricError, FabricTimeout,
                            master_slave_concat, payload_bytes, run_spmd,
                            spmd_concat)
from hexwave.sparse import COMPLEX_BYTES, INDEX_BYTES, SparseVector

from conftest import phase_traffic


def test_payload_accounting_sparse_vector():
    sv = SparseVector.from_dense(np.array([1 + 1j, 0, 2.0]))
    assert payload_bytes(sv) == 2 * (INDEX_BYTES + COMPLEX_BYTES)


def test_payload_accounting_arrays():
    assert payload_bytes(np.zeros(5, dtype=np.complex128)) == 80
    assert payload_bytes(np.zeros(5, dtype=np.float64)) == 40
    assert payload_bytes(np.zeros(5, dtype=np.int64)) == 40
    assert payload_bytes((np.zeros(2, np.int64),
                          np.zeros(2, np.complex128))) == 16 + 32


def test_send_recv_counts_messages_and_bytes():
    fab = CommFabric(2)
    fab.set_phase(0, "demo")

    def fn(f, r):
        if r == 0:
            f.send(0, 1, np.zeros(3, dtype=np.complex128))
        else:
            f.recv(1, 0)

    run_spmd(2, fn, fabric=fab)
    rep = fab.counters_report()
    assert rep["totals"]["messages"] == 1
    assert rep["totals"]["bytes"] == 48
    assert rep["per_rank"][0][0]["phase"] == "demo"


def test_self_send_rejected():
    fab = CommFabric(2)
    with pytest.raises(FabricError):
        fab.send(0, 0, None)


def test_recv_timeout_is_error_not_hang():
    fab = CommFabric(2, timeout=0.05)
    t0 = time.monotonic()
    with pytest.raises(FabricTimeout):
        fab.recv(0, 1)
    assert time.monotonic() - t0 < 2.0


def test_barrier_releases_all_ranks_any_arrival_order():
    fab = CommFabric(4)
    order = []

    def fn(f, r):
        time.sleep(0.01 * (3 - r))       # staggered arrivals
        f.barrier(r)
        order.append(r)

    run_spmd(4, fn, fabric=fab)
    assert sorted(order) == [0, 1, 2, 3]
    assert fab.barrier_collectives == 1
    assert fab.counters_report()["barrier_count_per_rank"] == [1, 1, 1, 1]


def test_broken_barrier_reported():
    fab = CommFabric(2, timeout=0.1)

    def fn(f, r):
        if r == 0:
            f.barrier(r)         # rank 1 never arrives

    with pytest.raises(FabricTimeout):
        run_spmd(2, fn, fabric=fab)


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
    fab = CommFabric(ranks)
    parts, full = _partials(ranks, 10 * ranks)
    for r in range(ranks):
        fab.set_phase(r, "concat")
    out = run_spmd(ranks, lambda f, r: spmd_concat(f, r, parts[r]), fabric=fab)
    assert phase_traffic(fab, "concat")[0] == ranks * ranks - ranks
    for o in out:
        np.testing.assert_array_equal(o, full)


@pytest.mark.parametrize("ranks", [1, 2, 4, 8, 10])
def test_master_slave_concat_message_count(ranks):
    fab = CommFabric(ranks)
    parts, full = _partials(ranks, 10 * ranks)
    for r in range(ranks):
        fab.set_phase(r, "concat")
    out = run_spmd(ranks, lambda f, r: master_slave_concat(f, r, parts[r]),
                   fabric=fab)
    assert phase_traffic(fab, "concat")[0] == 2 * (ranks - 1)
    for o in out:
        np.testing.assert_array_equal(o, full)


def test_master_broadcast_payload_is_dense():
    """The master's result broadcast is full-vector sized."""
    ranks, n = 3, 12
    fab = CommFabric(ranks)
    parts, _ = _partials(ranks, n)
    for r in range(ranks):
        fab.set_phase(r, "concat")
    run_spmd(ranks, lambda f, r: master_slave_concat(f, r, parts[r]),
             fabric=fab)
    rep = fab.counters_report()
    master = rep["per_rank"][0][0]
    assert master.get("bytes") == 2 * COMPLEX_BYTES * n  # two sends of n


def test_strategies_produce_identical_sums():
    """Same ascending-rank order, same floating-point result, bitwise."""
    ranks = 4
    rng = np.random.default_rng(11)
    n = 20
    # overlapping partials this time: order of summation matters
    parts = [SparseVector.from_dense(rng.standard_normal(n)
                                     + 1j * rng.standard_normal(n))
             for _ in range(ranks)]
    out_a = run_spmd(ranks, lambda f, r: spmd_concat(f, r, parts[r]),
                     fabric=CommFabric(ranks))
    out_b = run_spmd(ranks, lambda f, r: master_slave_concat(f, r, parts[r]),
                     fabric=CommFabric(ranks))
    for a, b in zip(out_a, out_b):
        assert np.array_equal(a, out_a[0])
        assert np.array_equal(a, b)


def test_allgather_object_uncounted():
    fab = CommFabric(3)
    out = run_spmd(3, lambda f, r: f.allgather_object(r, r * 10), fabric=fab)
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

    fab = CommFabric(4, timeout=30)
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        out = run_spmd(4, fn, fabric=fab)
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
        run_spmd(3, fn, fabric=CommFabric(3, timeout=5))
