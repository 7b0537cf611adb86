"""Property-based end-to-end PLFS correctness under arbitrary write plans.

Hypothesis generates random multi-rank write plans — overlapping offsets,
odd sizes, arbitrary interleavings across ranks and time — executes them
through the full PLFS + simulated-PFS stack, and checks the read-back
against a naive byte-array reference (last simulated-writer wins).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi import run_job
from repro.pfs.data import LiteralData
from tests.conftest import make_world

MAX_FILE = 1500

# A plan: per rank, a list of (offset, payload bytes).
plans = st.lists(  # ranks
    st.lists(  # writes of one rank
        st.tuples(
            st.integers(min_value=0, max_value=MAX_FILE - 1),
            st.binary(min_size=1, max_size=120),
        ),
        max_size=6,
    ),
    min_size=1,
    max_size=5,
)


@given(plans, st.sampled_from(["original", "flatten", "parallel"]))
@settings(max_examples=40, deadline=None)
def test_plfs_readback_matches_reference(plan, aggregation):
    nprocs = len(plan)
    w = make_world(aggregation=aggregation)
    order_log = []

    def writer(ctx):
        fh = yield from w.mount.open_write(ctx.client, "/f", ctx.comm)
        for offset, payload in plan[ctx.rank]:
            yield from fh.write(offset, LiteralData(payload))
            order_log.append((ctx.env.now, ctx.rank, offset, payload))
        yield from w.mount.close_write(fh, ctx.comm)

    run_job(w.env, w.cluster, nprocs, writer)

    # Reference: replay the observed simulated completion order.  Ties in
    # timestamp are broken by writer id (larger wins), like the index.
    ref = np.zeros(MAX_FILE + 200, dtype=np.uint8)
    written = np.zeros(MAX_FILE + 200, dtype=bool)
    size = 0
    for t, rank, offset, payload in sorted(order_log, key=lambda e: (e[0], e[1])):
        ref[offset:offset + len(payload)] = np.frombuffer(payload, dtype=np.uint8)
        written[offset:offset + len(payload)] = True
        size = max(size, offset + len(payload))
    ref[~written] = 0  # holes read as zeros

    def reader(ctx):
        fh = yield from w.mount.open_read(ctx.client, "/f", ctx.comm)
        assert fh.size == size
        view = yield from fh.read(0, size)
        yield from fh.close()
        return view.to_bytes()

    res = run_job(w.env, w.cluster, 1, reader, client_id_base=999)
    got = res.results[0]
    assert got == ref[:size].tobytes()


@given(plans)
@settings(max_examples=20, deadline=None)
def test_restart_job_sees_same_bytes_as_first_reader(plan):
    """A second, separate read job resolves to the identical content
    (the on-media index is the single source of truth)."""
    nprocs = len(plan)
    w = make_world(aggregation="parallel")

    def writer(ctx):
        fh = yield from w.mount.open_write(ctx.client, "/f", ctx.comm)
        for offset, payload in plan[ctx.rank]:
            yield from fh.write(offset, LiteralData(payload))
        yield from w.mount.close_write(fh, ctx.comm)

    run_job(w.env, w.cluster, nprocs, writer)

    def reader(ctx):
        fh = yield from w.mount.open_read(ctx.client, "/f", ctx.comm)
        view = yield from fh.read(0, fh.size)
        yield from fh.close()
        return view.to_bytes()

    first = run_job(w.env, w.cluster, 2, reader, client_id_base=1000).results
    w.drop_caches()
    second = run_job(w.env, w.cluster, 3, reader, client_id_base=2000).results
    assert len(set(first + second)) == 1
