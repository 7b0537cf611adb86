"""Census of the collective call sites under ``src/``.

Collective congruence is checked only at run time (DESIGN.md §11), so a
call site is checked only if some run executes it under the tracer.
Every site is listed here with the runs that do:

* ``F`` — CI's ``faults --instrument sanitize,collectives`` step;
* ``G`` — CI's ``fig5 ablations fig7 --instrument collectives`` step;
* ``T`` — the tier-1 tests in ``tests/mpi/test_trace.py``.

A site is a ``yield from <expr>.<collective>(...)`` outside
``repro.mpi`` (whose own composite collectives are the implementation),
keyed by file, enclosing function and receiver.  A new site fails this
test until it is listed with a run that executes it; a deleted one
fails until its entry goes.
"""

import ast
from collections import Counter
from pathlib import Path

import repro

COLLECTIVES = {"gather", "bcast", "barrier", "allgather", "reduce",
               "allreduce", "scatter", "alltoall", "split"}
RUNS = {"F", "G", "T"}

# (file under src/repro, enclosing function, call, covering runs);
# a function with two identical calls lists the entry twice.
SITES = [
    ("faults/experiment.py", "_recovery_leg.fn", "ctx.comm.barrier", "F"),
    ("mpiio/adio.py", "UfsDriver.open", "comm.bcast", "FGT"),
    ("mpiio/adio.py", "UfsDriver.open", "comm.bcast", "FGT"),
    ("mpiio/file.py", "MPIFile._two_phase_write", "comm.allgather", "GT"),
    ("mpiio/file.py", "MPIFile._two_phase_write", "comm.barrier", "T"),
    ("mpiio/file.py", "MPIFile._two_phase_write", "comm.barrier", "GT"),
    ("mpiio/file.py", "MPIFile._two_phase_read", "comm.allgather", "GT"),
    ("mpiio/file.py", "MPIFile._two_phase_read", "comm.barrier", "T"),
    ("mpiio/file.py", "MPIFile._two_phase_read", "comm.barrier", "GT"),
    ("plfs/aggregation.py", "aggregate_parallel", "comm.bcast", "FG"),
    ("plfs/aggregation.py", "aggregate_parallel", "comm.split", "FG"),
    ("plfs/aggregation.py", "aggregate_parallel", "comm.split", "FG"),
    ("plfs/aggregation.py", "aggregate_parallel", "group.gather", "FG"),
    ("plfs/aggregation.py", "aggregate_parallel", "leaders.gather", "FG"),
    ("plfs/aggregation.py", "aggregate_parallel", "leaders.bcast", "FG"),
    ("plfs/aggregation.py", "aggregate_parallel", "group.bcast", "FG"),
    ("plfs/aggregation.py", "read_flattened_index", "comm.bcast", "G"),
    ("plfs/aggregation.py", "flatten_on_close", "comm.allreduce", "G"),
    ("plfs/aggregation.py", "flatten_on_close", "comm.gather", "G"),
    ("plfs/aggregation.py", "flatten_on_close", "comm.barrier", "G"),
    ("plfs/api.py", "PlfsMount.open_write", "comm.bcast", "FG"),
    ("workloads/base.py", "_writer_fn.fn", "ctx.comm.barrier", "GT"),
    ("workloads/campaign.py", "Campaign._checkpoint.fn", "ctx.comm.barrier", "F"),
    ("workloads/metadata_bench.py", "nn_metadata_storm.fn", "ctx.comm.barrier", "G"),
    ("workloads/metadata_bench.py", "n1_open_storm.fn", "ctx.comm.barrier", "G"),
    ("workloads/metadata_bench.py", "n1_open_storm.fn", "ctx.comm.barrier", "G"),
]


def _sites(node, qualname, path, out):
    for child in ast.iter_child_nodes(node):
        name = qualname
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{qualname}.{child.name}" if qualname else child.name
        if (isinstance(child, ast.YieldFrom) and isinstance(child.value, ast.Call)
                and isinstance(child.value.func, ast.Attribute)
                and child.value.func.attr in COLLECTIVES):
            out.append((path, name, ast.unparse(child.value.func)))
        _sites(child, name, path, out)


def census():
    root = Path(repro.__file__).parent
    out = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        if not rel.startswith("mpi/"):
            _sites(ast.parse(path.read_text(encoding="utf-8")), "", rel, out)
    return Counter(out)


def test_every_collective_site_is_listed_with_a_covering_run():
    listed = Counter((path, fn, call) for path, fn, call, _ in SITES)
    found = census()
    assert found - listed == Counter(), "unlisted collective call sites"
    assert listed - found == Counter(), "listed sites that no longer exist"
    for path, fn, call, runs in SITES:
        assert runs and set(runs) <= RUNS, (path, fn, call, runs)

