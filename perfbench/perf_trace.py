"""Span recorder that wraps hexwave's public layer functions from outside.

Nothing in the package is edited: :class:`Patches` swaps selected module,
class and table attributes for the wrappers a :class:`Tracer` makes, and
puts every original object back on :meth:`Patches.restore`.  Spans live in
memory and are written out by the caller at the end of the benchmark.
"""
from __future__ import annotations

import itertools
import threading
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    thread: str        # "rank<r>" for rank threads; P=1 runs inline
    start: float
    end: float
    parent: int | None

    def as_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "thread": self.thread,
                "start": self.start, "end": self.end, "parent": self.parent}


def layer_targets():
    """(owner, attribute, span name) for every wrapped entry point.

    A function imported into several modules is patched where it is
    looked up at call time, which is why some names appear twice.
    ``runner.run_scenario`` is the root span; ``run_spmd`` is left
    unwrapped so thread start and join stay in ``runner``'s self time.
    """
    from hexwave import assembly, fabric, runner, solver, sparse
    return [
        (runner, "run_scenario", "runner"),
        (runner, "build_scenario_mesh", "mesh.build"),
        (runner, "constrained_dofs", "assembly.bc"),
        (assembly, "constrained_dofs", "assembly.bc"),
        (runner, "assemble_rows", "assembly.rows"),
        (runner, "assemble_rhs", "assembly.rhs"),
        (runner, "apply_symmetry_bc", "assembly.bc"),
        (runner, "symmetrize", "assembly.symmetrize"),
        (sparse.RedundantRows, "from_rows", "sparse.system_build"),
        (sparse.LowerSymmetricRows, "from_symmetric_rows",
         "sparse.system_build"),
        (runner, "to_redundant", "sparse.system_build"),
        (solver, "spmv_partial", "sparse.spmv"),
        (solver, "full_matvec", "sparse.true_residual"),
        (fabric.CommFabric, "allgather_object", "fabric.replicate"),
        (fabric.CommFabric, "recv", "fabric.recv_wait"),
        (fabric.CommFabric, "barrier", "fabric.barrier_wait"),
        (fabric.CONCAT_STRATEGIES, "spmd", "fabric.concat"),
        (fabric.CONCAT_STRATEGIES, "ms", "fabric.concat"),
        (runner, "build_dp", "solver.precond_build"),
        (runner, "build_icp", "solver.precond_build"),
        (runner, "build_bicp", "solver.precond_build"),
        (solver, "forward_back_substitute", "solver.precond_apply"),
        (runner, "cg_solve", "solver.cg"),
    ]


def _get_raw(owner, attr):
    if isinstance(owner, dict):
        return owner[attr]
    if isinstance(owner, type):
        return owner.__dict__[attr]       # keeps a classmethod object intact
    return getattr(owner, attr)


def _set_raw(owner, attr, value):
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


class Patches:
    """Attribute swaps that are undone in reverse order by :meth:`restore`."""

    def __init__(self):
        self._saved: list = []

    def install(self, owner, attr, make_wrapper) -> None:
        raw = _get_raw(owner, attr)
        if isinstance(raw, classmethod):
            new = classmethod(make_wrapper(raw.__func__))
        else:
            new = make_wrapper(raw)
        self._saved.append((owner, attr, raw))
        _set_raw(owner, attr, new)

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            _set_raw(owner, attr, raw)


class Tracer:
    """Records one span per wrapped call, plus counts taken at the same
    boundaries through optional per-name hooks ``hook(counts, args)``."""

    def __init__(self, hooks: dict | None = None):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._hooks = hooks or {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._root: int | None = None
        self._count_lock = threading.Lock()

    def install(self, targets, patches: Patches) -> None:
        """Wrap every (owner, attribute, span name) target; ``patches``
        undoes it."""
        for owner, attr, name in targets:
            patches.install(owner, attr,
                            lambda fn, name=name: self._wrap(fn, name))

    def _wrap(self, fn, name):
        hook = self._hooks.get(name)

        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            sid = next(self._ids)
            # A rank thread's outermost span hangs off the root span that
            # the main thread holds open while the ranks run.
            parent = stack[-1] if stack else self._root
            is_root = not stack and self._root is None
            if is_root:
                self._root = sid
            stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if is_root:
                    self._root = None
                self.spans.append(Span(sid, name,
                                       threading.current_thread().name,
                                       start, end, parent))
                if hook is not None:
                    with self._count_lock:
                        hook(self.counts, args)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced


def self_times(spans) -> dict[str, float]:
    """Per span name: summed duration minus the time its children cover.

    Children on several rank threads may overlap each other, so coverage
    is the length of the union of the child intervals, clipped to the
    parent's own interval.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c0, c1 in sorted(children.get(s.id, ())):
            c0, c1 = max(c0, cursor), min(c1, s.end)
            if c1 > c0:
                covered += c1 - c0
                cursor = c1
        out[s.name] += (s.end - s.start) - covered
    return dict(out)
