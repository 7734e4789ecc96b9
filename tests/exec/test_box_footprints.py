"""Box footprints are byte-identical to the serial backend.

A rect footprint moves between the parent and its workers only as a box:
slices of the region's N-D field, never an index array.  That holds in
shared memory, in the pickled form (``shm`` off, socket transport), and
through the recovery ladder.  Random 1-3-D regions with non-zero lower
bounds, block and overlapping-halo partitions with several points per
shard, WRITE and READ_WRITE tasks with partial writes, a rect and a sparse
partition of one region in the same launch, and empty tiles must leave
every region byte, future value and ``PipelineStats`` counter exactly as
the serial backend leaves them.

The steady-state test pins the wire form itself: on a replayed stencil
launch the arena stages exactly the footprints' value bytes, so a silent
return to index arrays (or to the pickle fallback) fails here.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.stencil import StencilConfig, build_stencil, run_stencil
from repro.core.domain import Domain, Rect
from repro.data.partition import block_partition, explicit_partition
from repro.exec.pool import shutdown_pools
from repro.fault import FaultPlan, FaultSpec, RetryPolicy
from repro.runtime import Runtime, RuntimeConfig, task

from tests.exec.test_parallel_equivalence import full_stats

FAST_RETRY = RetryPolicy(
    same_worker_retries=1,
    respawns=2,
    backoff_base_s=1e-4,
    backoff_cap_s=1e-3,
    shard_timeout_s=30.0,
)


@task(privileges=["reads", "reads writes"], fields=[("a",), ("b",)])
def halo_into_block(ctx, halo, block):
    """Overlapping-halo read, partial READ_WRITE of every other column."""
    total = float(halo.read_nd("a").sum())
    view = block.read_nd("b")
    view[..., ::2] += total
    return total


@task(privileges=["writes"], fields=[("a",)])
def stamp(ctx, block):
    """WRITE privilege; odd points write nothing at all."""
    if sum(ctx.point) % 2 == 0:
        block.write_nd("a", float(sum(ctx.point)) + 0.25)


@task(privileges=["reads", "reads writes"], fields=[("a",), ("c",)])
def sparse_into_block(ctx, sparse, block):
    """A sparse read and a rect write of the same region, one launch."""
    total = float(sparse.read("a").sum())
    block.write_nd("c", block.read_nd("c") * 0.5 + total)
    return total


@task(privileges=["reads", "reads writes"], fields=[("c",), ("a",)])
def halo_into_sparse(ctx, halo, sparse):
    """A rect read and a sparse write of the same region, one launch."""
    sparse.write("a", sparse.read("a") - float(halo.read_nd("c").sum()))


@task(privileges=["reduces +"], fields=[("b",)])
def deposit(ctx, block):
    """Reductions keep the index form (``np.ufunc.at`` order)."""
    block.reduce("b", np.full(block.volume, 1.0 + sum(ctx.point)))


OPS = ("halo", "stamp", "sparse_into_block", "halo_into_sparse", "deposit")


@st.composite
def box_programs(draw):
    dim = draw(st.integers(min_value=1, max_value=3))
    axis = st.integers(min_value=1, max_value=5)
    lo = draw(st.lists(
        st.integers(min_value=-4, max_value=4).filter(bool),
        min_size=dim, max_size=dim,
    ))
    extents = draw(st.lists(axis, min_size=dim, max_size=dim))
    # Up to 3 blocks per axis: extents below the block count leave empty
    # tiles, and up to 27 colors spread several points over each shard.
    blocks = draw(st.lists(
        st.integers(min_value=1, max_value=3), min_size=dim, max_size=dim,
    ))
    if max(blocks) == 1:
        blocks[0] = 2  # one color is one shard: never parallel
    halo = draw(st.integers(min_value=1, max_value=2))
    ops = draw(st.lists(st.sampled_from(OPS), min_size=1, max_size=4))
    n_nodes = draw(st.sampled_from([2, 3]))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return lo, extents, blocks, halo, tuple(ops), n_nodes, seed


def run_boxes(program, workers, **cfg):
    lo, extents, blocks, halo, ops, n_nodes, seed = program
    rt = Runtime(RuntimeConfig(workers=workers, n_nodes=n_nodes, **cfg))
    hi = [l + e - 1 for l, e in zip(lo, extents)]
    region = rt.create_region(
        "grid", Rect(lo, hi), {"a": "f8", "b": "f8", "c": "f8"}
    )
    rng = np.random.default_rng(seed)
    for fname in ("a", "b", "c"):
        region.storage(fname)[:] = rng.standard_normal(region.volume)
    block = block_partition("block", region, blocks)
    ghost = block_partition("ghost", region, blocks, halo=halo)
    colors = list(block.color_space)
    # Disjoint sparse sets, some empty; a point may belong to no color.
    owner = rng.integers(-1, len(colors), size=region.volume)
    sparse = explicit_partition(
        "sparse", region,
        {c: np.flatnonzero(owner == i) for i, c in enumerate(colors)},
        disjoint=True,
    )
    domain = Domain.rect([0] * len(blocks), [b - 1 for b in blocks])
    futures = []
    for _ in range(3):  # first issue, trace capture, replay
        rt.begin_trace(7)
        for op in ops:
            if op == "halo":
                fmap = rt.index_launch(halo_into_block, domain, ghost, block)
                futures.append([fmap.get(p) for p in colors])
            elif op == "stamp":
                rt.index_launch(stamp, domain, block)
            elif op == "sparse_into_block":
                fmap = rt.index_launch(
                    sparse_into_block, domain, sparse, block
                )
                futures.append([fmap.get(p) for p in colors])
            elif op == "halo_into_sparse":
                rt.index_launch(halo_into_sparse, domain, ghost, sparse)
            else:
                rt.index_launch(deposit, domain, block)
        rt.end_trace(7)
    data = {f: region.storage(f).tobytes() for f in ("a", "b", "c")}
    return rt, data, futures


def assert_identical(program, **cfg):
    ref_rt, ref_data, ref_futures = run_boxes(program, 1)
    rt, data, futures = run_boxes(program, 2, **cfg)
    assert data == ref_data
    assert futures == ref_futures
    assert full_stats(rt) == full_stats(ref_rt)
    return rt


#: Every wire form a box takes: shm descriptors over the pipe and local
#: transports, the pickled form with shm off and over sockets.
TRANSPORTS = [
    dict(transport="pipe", shm=True),
    dict(transport="local", shm=True),
    dict(transport="pipe", shm=False),
    dict(transport="socket"),
]


class TestBoxIdentity:
    @pytest.mark.parametrize(
        "cfg", TRANSPORTS, ids=lambda c: "-".join(map(str, c.values()))
    )
    @settings(max_examples=8, deadline=None)
    @given(program=box_programs())
    def test_matches_serial(self, cfg, program):
        rt = assert_identical(program, **cfg)
        assert rt.backend.stats.parallel_launches > 0

    @pytest.mark.parametrize("kind", ["kill", "corrupt"])
    @settings(max_examples=4, deadline=None)
    @given(program=box_programs())
    def test_matches_serial_under_faults(self, kind, program):
        plan = FaultPlan(specs=(
            FaultSpec(kind=kind, scope="worker", target=(0,),
                      phase="execution"),
        ))
        rt = assert_identical(
            program, transport="pipe", shm=True,
            fault_plan=plan, retry=FAST_RETRY,
        )
        assert rt.fault_injector.fired_count >= 1
        assert rt.stats.launches_poisoned == 0


class TestBoxWireForm:
    def test_steady_stencil_stages_only_value_bytes(self):
        """Anti-vacuity: a replayed stencil step stages exactly its
        footprints' value bytes through shm — no index bytes, no pickle
        fallbacks — and its write slots cover exactly the block bytes."""
        shutdown_pools()
        cfg = StencilConfig(n=64, blocks=(2, 2), radius=3, steps=1)
        rt = Runtime(RuntimeConfig(workers=2, n_nodes=4, shm=True,
                                   transport="pipe"))
        grid = build_stencil(rt, cfg)
        for _ in range(3):  # first issue, trace capture, first replay
            run_stencil(rt, grid, steps=1)
        arena = rt.backend._pool.arena
        before = arena.stats.as_dict()
        launches = rt.backend.stats.parallel_launches
        run_stencil(rt, grid, steps=1)
        after = arena.stats.as_dict()
        delta = {k: after[k] - before[k] for k in after}

        itemsize = 8  # both fields are f8
        halo_bytes = sum(
            grid.halo[c].volume for c in grid.halo.color_space
        ) * itemsize
        block_bytes = sum(
            grid.interior[c].volume for c in grid.interior.color_space
        ) * itemsize
        # stencil_step reads the halo ("input") and its RW block
        # ("output"); increment reads its RW block ("input").
        assert delta["bytes_staged"] == halo_bytes + 2 * block_bytes
        assert delta["bytes_slotted"] == 2 * block_bytes
        assert delta["read_entries"] == 3 * 4
        assert delta["write_slots"] == 2 * 4
        assert delta["read_fallbacks"] == 0
        assert delta["write_fallbacks"] == 0
        assert rt.backend.stats.parallel_launches == launches + 2
        assert rt.backend.stats.fallbacks == 0
