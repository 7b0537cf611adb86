"""The resilience experiment: what faults cost, and what recovery saves.

§I of the paper frames checkpoint I/O entirely in terms of failure — the
whole point of a fast checkpoint path is surviving a machine that breaks.
This experiment closes that loop quantitatively, PLFS vs direct N-1:

* **Efficiency leg** — a full checkpoint/restart campaign driven by a
  seeded :class:`FaultPlan`: the same plan supplies the compute-failure
  clock *and* a schedule of component faults (OSD outages, MDS crashes)
  that strike while checkpoint and restart jobs are in flight.  Clients
  survive the transients through bounded retry policies; the reported
  metric is useful-work efficiency vs MTBF and fault kind.
* **Recovery leg** — one checkpoint job with an injected crash (a writer
  rank killed at a byte offset, or a component fault mid-write), followed
  by ``plfs_check`` / ``plfs_recover`` and a byte-exact read-back of every
  acknowledged write (:mod:`repro.faults.verify`).  The reported metric is
  the recovered fraction of acked bytes — PLFS loses the killed writer's
  unspilled index tail, direct in-place writes lose nothing, and both
  must recover with zero mismatched bytes.

Both stacks run under the same plan seed, so they see identical failure
clocks and fault schedules; tables are bit-identical across runs and
``--jobs`` values.
"""

from __future__ import annotations

from typing import List

from ..harness.report import Table
from ..harness.scales import Scale
from ..harness.setup import build_world
from ..harness.sweep import run_points
from ..mpi import run_job
from ..pfs.data import PatternData
from ..workloads.base import make_stack
from .injector import FaultInjector
from .plan import COMPONENT_KINDS, FaultEvent, FaultPlan
from .policies import RetryPolicy, retrying
from .verify import AckedWrite, verify_recovery

__all__ = ["faults", "run_faults_point"]

OUTAGE_DURATION = 2.0       # seconds an OSD stays down (campaign faults)
DETECTION_DELAY = 1.0       # MDS crash -> standby promoted


def _policy(plan: FaultPlan, stream: int) -> RetryPolicy:
    """The experiment's client policy: bounded well inside any fault window.

    Worst case a single op retries ~10 times capped at 2 s each — far less
    than the 120 s deadline and far more than the longest injected outage,
    so jobs neither hang nor give up while a component is mid-recovery.
    """
    return RetryPolicy(max_retries=10, base_delay=5e-3, multiplier=2.0,
                       max_delay=2.0, jitter=0.5, deadline=120.0,
                       rng=plan.rng("retry-jitter", stream))


# -- efficiency leg ----------------------------------------------------------

def _component_plan(kind: str, mtbf: float, scale: Scale, world) -> FaultPlan:
    if kind in COMPONENT_KINDS:
        return FaultPlan.generate(
            scale.faults_seed, horizon=4.0 * scale.faults_work, mtbf=mtbf,
            kinds=[kind], n_osds=len(world.volume.pool.osds),
            outage_duration=OUTAGE_DURATION, detection_delay=DETECTION_DELAY)
    return FaultPlan((), seed=scale.faults_seed)


def _efficiency_leg(stack_name: str, kind: str, mtbf: float, scale: Scale):
    from ..workloads.campaign import Campaign

    world = build_world()
    plan = _component_plan(kind, mtbf, scale, world)
    retry = _policy(plan, 0 if stack_name == "plfs" else 1)
    injector = FaultInjector(world, plan) if plan.component_events else None
    camp = Campaign(world, make_stack(stack_name, world, retry=retry),
                    nprocs=scale.faults_nprocs,
                    per_proc_bytes=scale.faults_per_proc,
                    record_bytes=scale.faults_record,
                    work_target=scale.faults_work,
                    interval=scale.faults_interval, mtbf=mtbf,
                    plan=plan, injector=injector)
    res = camp.run()
    applied = len(injector.applied) // 2 if injector else 0
    return res, applied


# -- recovery leg ------------------------------------------------------------

def _recovery_plan(kind: str, scale: Scale) -> FaultPlan:
    """One-crash plan for the recovery leg, derived from the scale's seed."""
    seed = scale.faults_seed + 1
    rng = FaultPlan((), seed=seed).rng("recovery:" + kind)
    nrec = max(1, scale.faults_per_proc // scale.faults_record)
    events: List[FaultEvent] = []
    if kind == "writer_kill":
        rank = int(rng.integers(scale.faults_nprocs))
        acked_records = int(rng.integers(1, max(2, nrec)))
        events.append(FaultEvent(0.0, "writer_kill", target=rank,
                                 magnitude=float(acked_records * scale.faults_record)))
    elif kind in COMPONENT_KINDS:
        t = float(rng.uniform(0.005, 0.02))
        if kind == "mds_crash":
            events.append(FaultEvent(t, "mds_crash", duration=0.1))
        else:
            events.append(FaultEvent(t, kind, target=int(rng.integers(1 << 16)),
                                     duration=0.2))
    return FaultPlan(events, seed=seed)


def _recovery_leg(stack_name: str, kind: str, scale: Scale):
    # A small spill threshold so a killed writer sits mid-way between index
    # spills — the interesting crash position for PLFS recovery.
    world = build_world(index_spill_records=4)
    plan = _recovery_plan(kind, scale)
    retry = _policy(plan, 2)
    kills = plan.writer_kills()
    FaultInjector(world, plan).arm()
    path = "/faults/ckpt"
    nprocs = scale.faults_nprocs
    per_proc, record = scale.faults_per_proc, scale.faults_record
    env = world.env
    mount, volume = world.mount, world.volume
    driver = make_stack(stack_name, world, retry=retry)

    def fn(ctx):
        if ctx.rank == 0:
            yield from driver.mkdir(ctx.client, "/faults")
            if stack_name == "plfs":
                # Pre-create the container skeleton: independent opens
                # (comm=None) would otherwise race its creation.
                yield from mount.create(ctx.client, path)
            else:
                fh0 = yield from volume.open(ctx.client, path, "w",
                                             create=True, truncate=True)
                yield from fh0.close()
        yield from ctx.comm.barrier()
        # Independent opens: a killed rank must not strand the others at a
        # collective close, so nothing below is collective.
        if stack_name == "plfs":
            h = yield from driver.open(ctx.client, None, path, "w")
        else:
            # Not the driver's open: that would truncate the pre-created file.
            h = yield from retrying(env, retry, lambda: volume.open(
                ctx.client, path, "w"))
        seed_r = (plan.seed * 1_000_003 + ctx.rank) & 0x7FFFFFFF
        kill = kills.get(ctx.rank)
        acked: List[AckedWrite] = []
        written = 0
        while written < per_proc:
            if kill is not None and written >= kill.magnitude:
                # This rank dies: tear down without closing.  PLFS keeps
                # only the spilled index prefix; direct keeps every
                # acknowledged in-place write.
                if stack_name == "plfs":
                    h.abandon()
                else:
                    h.closed = True
                    h.inode.writers -= 1
                return acked
            n = min(record, per_proc - written)
            off = ctx.rank * record + (written // record) * nprocs * record
            spec = PatternData(seed_r, written, n)
            yield from driver.write_at(h, off, spec)
            acked.append(AckedWrite(ctx.rank, off, spec))
            written += n
        yield from driver.close(h, None)
        return acked

    job = run_job(env, world.cluster, nprocs, fn, name=f"faults-{kind}",
                  client_id_base=7000)
    acked_all: List[AckedWrite] = []
    for per_rank in job.results:
        acked_all.extend(per_rank)
    return verify_recovery(world, stack_name, path, acked_all)


# -- the figure --------------------------------------------------------------

def run_faults_point(stack_name: str, kind: str, mtbf: float,
                     scale: Scale) -> dict:
    """One (stack, fault kind, MTBF) point: efficiency + (once) recovery."""
    res, applied = _efficiency_leg(stack_name, kind, mtbf, scale)
    out = {"efficiency": res.efficiency, "n_failures": res.n_failures,
           "n_faults": applied, "recovered": None, "recovery_ok": None}
    if kind != "none" and mtbf == scale.faults_mtbfs[0]:
        report = _recovery_leg(stack_name, kind, scale)
        out["recovered"] = report.recovered_fraction
        out["recovery_ok"] = report.ok
    return out


def faults(scale: Scale, jobs: int = 1) -> List[Table]:
    kinds = list(scale.faults_kinds)
    mtbfs = list(scale.faults_mtbfs)
    grid = [(s, k, m) for k in kinds for m in mtbfs for s in ("plfs", "direct")]
    results = dict(zip(grid, run_points(
        run_faults_point, [(s, k, m, scale) for s, k, m in grid], jobs)))
    eff = Table(
        id="faults-eff",
        title=f"Campaign useful-work efficiency under faults "
              f"({scale.faults_nprocs} procs)",
        columns=["fault", "MTBF [s]", "PLFS eff", "direct eff",
                 "failures", "component faults"],
        notes="same plan seed for both stacks: identical failure clocks; "
              "PLFS's faster checkpoints lose less work per failure")
    for k in kinds:
        for m in mtbfs:
            p, d = results[("plfs", k, m)], results[("direct", k, m)]
            eff.add(k, m, p["efficiency"], d["efficiency"],
                    p["n_failures"], p["n_faults"])
    rec = Table(
        id="faults-rec",
        title="Post-crash recovery: fraction of acked bytes readable",
        columns=["fault", "PLFS recovered", "PLFS ok",
                 "direct recovered", "direct ok"],
        notes="plfs_check + plfs_recover, then every acked write read back "
              "byte-exactly; PLFS legitimately loses a killed writer's "
              "unspilled tail, direct in-place writes survive whole")
    for k in kinds:
        if k == "none":
            continue
        p, d = results[("plfs", k, mtbfs[0])], results[("direct", k, mtbfs[0])]
        rec.add(k, p["recovered"], p["recovery_ok"],
                d["recovered"], d["recovery_ok"])
    return [eff, rec]
