"""Tests for the interprocedural collective-matching analyzer (REP101..REP104)
and its runtime cross-check, the collective-trace validator.

The acceptance fixture is the leader-only broadcast: REP101 must flag the
divergent ``bcast`` line statically, and an ``--instrument collectives`` run of
the same shape must report the non-congruent per-rank traces at runtime.
"""

import ast
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis.collectives import analyze_modules, analyze_paths
from repro.analysis.config import AnalysisConfig, load_config
from repro.cluster import Cluster, ClusterSpec, NodeSpec
from repro.errors import CollectiveMismatchError
from repro.mpi import run_job
from repro.mpi.trace import attach_tracer, validate_tracer
from repro.sim import Engine

REPO = Path(__file__).resolve().parents[2]
SRC = REPO / "src"


def analyze(src, name="mod.py"):
    tree = ast.parse(textwrap.dedent(src))
    return analyze_modules({name: tree}, AnalysisConfig())


def rules_of(findings):
    return [f.rule for f in findings]


# -- REP101: collective under a rank-dependent branch ------------------------

LEADER_ONLY_BCAST = '''
def leader_bcast(comm):
    if comm.rank == 0:
        yield from comm.bcast("hdr", root=0)
    vals = yield from comm.gather(comm.rank, root=0)
    return vals
'''


class TestRep101:
    def test_leader_only_bcast_flagged_at_divergent_line(self):
        findings = analyze(LEADER_ONLY_BCAST)
        assert rules_of(findings) == ["REP101"]
        # Line 4 is the bcast inside the rank-dependent arm — the
        # collective the other ranks never issue.
        assert findings[0].line == 4
        assert "bcast" in findings[0].message

    def test_congruent_both_arm_bcast_is_clean(self):
        # The adio.py open idiom: both arms issue the same collective.
        assert analyze('''
            def open_file(comm):
                if comm.rank == 0:
                    meta = do_open()
                    yield from comm.bcast(meta, root=0)
                else:
                    meta = yield from comm.bcast(None, root=0)
                return meta
        ''') == []

    def test_uniform_early_return_is_clean(self):
        # An untainted guard splits *runs*, not ranks of one run.
        assert analyze('''
            def maybe(comm, items):
                if not items:
                    return None
                data = yield from comm.bcast(items, root=0)
                return data
        ''') == []

    def test_two_level_leader_split_is_clean(self):
        # Rank-dependent split color partitions the comm: per-color
        # congruence holds by construction.
        assert analyze('''
            def two_level(comm):
                color = comm.rank % 2
                sub = yield from comm.split(color)
                if color == 0:
                    parts = yield from sub.gather(1, root=0)
                else:
                    parts = yield from sub.gather(2, root=0)
                yield from comm.barrier()
                return parts
        ''') == []

    def test_interprocedural_helper_flagged_at_call_site(self):
        findings = analyze('''
            def helper(comm, data):
                yield from comm.bcast(data, root=0)

            def caller(comm):
                if comm.rank == 0:
                    yield from helper(comm, "x")
                yield from comm.barrier()
        ''')
        assert rules_of(findings) == ["REP101"]
        assert findings[0].line == 7  # the helper() call under the branch


# -- REP102: rank-dependent root --------------------------------------------

class TestRep102:
    def test_rank_root_flagged(self):
        findings = analyze('''
            def bad_root(comm):
                yield from comm.bcast("x", root=comm.rank)
        ''')
        assert rules_of(findings) == ["REP102"]

    def test_root_param_tainted_through_call(self):
        findings = analyze('''
            def helper(comm, root):
                yield from comm.bcast("x", root=root)

            def caller(comm):
                yield from helper(comm, comm.rank)
        ''')
        assert rules_of(findings) == ["REP102"]
        assert findings[0].line == 6  # the call passing comm.rank

    def test_allreduced_root_is_laundered(self):
        # allreduce yields the same value on every rank: a uniform root.
        assert analyze('''
            def pick(comm):
                leader = yield from comm.allreduce(comm.rank, op=max)
                yield from comm.bcast("x", root=leader)
        ''') == []


# -- REP103: unmatched send/recv pairing ------------------------------------

class TestRep103:
    def test_unconsumed_send_flagged(self):
        findings = analyze('''
            def lonely(comm):
                yield from comm.send(comm.rank + 1, "x", nbytes=1,
                                     tag=("odd", 7))
        ''')
        assert rules_of(findings) == ["REP103"]
        assert "no recv" in findings[0].message

    def test_unsatisfiable_recv_flagged(self):
        findings = analyze('''
            def waiter(comm):
                msg = yield from comm.recv(0, tag=("never", 1))
                return msg
        ''')
        assert rules_of(findings) == ["REP103"]
        assert "no send" in findings[0].message

    def test_matched_pair_is_clean(self):
        assert analyze('''
            def exchange(comm):
                if comm.rank == 0:
                    yield from comm.send(1, "x", nbytes=1, tag=("pair", 1))
                elif comm.rank == 1:
                    msg = yield from comm.recv(0, tag=("pair", 1))
                    return msg
        ''') == []

    def test_pairing_matches_across_functions(self):
        # Tree-wide registry: sender and receiver in different functions.
        assert analyze('''
            def producer(comm):
                yield from comm.send(1, "x", nbytes=1, tag=("xfn", 3))

            def consumer(comm):
                msg = yield from comm.recv(0, tag=("xfn", 3))
                return msg
        ''') == []


# -- REP104: collective in a rank-dependent-trip-count loop ------------------

class TestRep104:
    def test_rank_bound_loop_flagged(self):
        findings = analyze('''
            def bad_loop(comm):
                for _ in range(comm.rank):
                    yield from comm.barrier()
        ''')
        assert rules_of(findings) == ["REP104"]
        assert findings[0].line == 4  # the barrier inside the loop

    def test_uniform_bound_loop_is_clean(self):
        assert analyze('''
            def rounds(comm, n):
                for _ in range(n):
                    yield from comm.barrier()
        ''') == []


# -- suppression and the shipped tree ---------------------------------------

class TestSuppression:
    def test_noqa_with_justification_suppresses(self, tmp_path):
        mod = tmp_path / "supp.py"
        mod.write_text(textwrap.dedent('''
            def leader(comm):
                if comm.rank == 0:
                    yield from comm.bcast("h", root=0)  # noqa: REP101 -- demo
                vals = yield from comm.gather(comm.rank, root=0)
                return vals
        '''))
        assert analyze_paths([str(mod)], AnalysisConfig()) == []

    def test_noqa_for_other_rule_does_not_suppress(self, tmp_path):
        mod = tmp_path / "supp.py"
        mod.write_text(textwrap.dedent('''
            def leader(comm):
                if comm.rank == 0:
                    yield from comm.bcast("h", root=0)  # noqa: REP104
                vals = yield from comm.gather(comm.rank, root=0)
                return vals
        '''))
        assert rules_of(analyze_paths([str(mod)], AnalysisConfig())) \
            == ["REP101"]


def test_shipped_tree_is_congruence_clean():
    findings = analyze_paths([str(SRC)],
                             load_config(REPO / "pyproject.toml"))
    assert findings == [], "\n".join(f.render() for f in findings)


def test_cli_collectives_exits_zero_on_clean_tree():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "collectives", str(SRC)],
        cwd=REPO, capture_output=True, text=True,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"})
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_cli_collectives_flags_seeded_fixture(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(textwrap.dedent(LEADER_ONLY_BCAST))
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis", "collectives",
         "--no-config", str(bad)],
        cwd=REPO, capture_output=True, text=True,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"})
    assert proc.returncode == 1
    assert "REP101" in proc.stdout


# -- runtime cross-check: the trace validator confirms REP101 ----------------

def _world(n_nodes=4, cores=4):
    env = Engine()
    cluster = Cluster(env, ClusterSpec(name="t", n_nodes=n_nodes,
                                       node=NodeSpec(cores=cores)))
    return env, cluster


class TestRuntimeConfirmation:
    def test_divergent_fixture_reports_non_congruent_traces(self):
        # The runtime half of the acceptance criterion: the exact shape
        # REP101 flags statically produces a CollectiveMismatchError
        # naming the per-rank divergence when traced.
        def fn(ctx):
            c = ctx.comm
            if c.rank == 0:
                yield from c.bcast("hdr", root=0)
            vals = yield from c.gather(c.rank, root=0)
            return vals

        env, cluster = _world()
        attach_tracer(env, strict=True)
        with pytest.raises(CollectiveMismatchError) as err:
            run_job(env, cluster, 4, fn, name="bad")
        msg = str(err.value)
        assert "diverge at collective #0" in msg
        assert "rank 0: bcast(root=0)" in msg
        assert "rank 1: gather(root=0)" in msg

    def test_congruent_job_passes_strict_validation(self):
        def fn(ctx):
            c = ctx.comm
            yield from c.barrier()
            data = yield from c.bcast("x", root=0)
            yield from c.gather(data, root=0)
            return data

        env, cluster = _world()
        tracer = attach_tracer(env, strict=True)
        result = run_job(env, cluster, 4, fn, name="ok")
        assert result.results == ["x"] * 4
        assert validate_tracer(tracer) == []

    def test_non_strict_tracer_collects_instead_of_raising(self):
        # The model checker's mode: violations become oracle findings.
        def fn(ctx):
            c = ctx.comm
            if c.rank == 0:
                yield from c.bcast("hdr", root=0)
            vals = yield from c.gather(c.rank, root=0)
            return vals

        from repro.errors import DeadlockError

        env, cluster = _world()
        tracer = attach_tracer(env, strict=False)
        # The divergence also desynchronizes tags, so the job hangs; a
        # strict=False tracer still upgrades the error to the mismatch.
        with pytest.raises((CollectiveMismatchError, DeadlockError)):
            run_job(env, cluster, 4, fn, name="bad")
        errors = validate_tracer(tracer)
        assert errors and "diverge" in errors[0]
