"""Bench for the post-paper campaign loop.

Not a paper figure — it quantifies the §I motivation (failure-driven
checkpointing efficiency) on the same simulated platform as the figure
benches.
"""

from repro.harness.setup import build_world
from repro.units import KB, MB
from repro.workloads import direct_stack, plfs_stack
from repro.workloads.campaign import Campaign, daly_interval


def test_campaign_efficiency_ranking(benchmark):
    """Under one failure stream, cheaper checkpoints -> higher efficiency,
    and Daly's interval beats a badly mistuned one."""

    def campaign(stack_fn, interval, seed=13):
        world = build_world(n_nodes=8, cores=4, aggregation="parallel")
        c = Campaign(world, stack_fn(world), nprocs=16, per_proc_bytes=2 * MB,
                     record_bytes=100 * KB, work_target=400.0,
                     interval=interval, mtbf=120.0, seed=seed)
        return c.run()

    def run():
        plfs = campaign(plfs_stack, interval=25.0)
        direct = campaign(direct_stack, interval=25.0)
        tuned = campaign(plfs_stack, interval=daly_interval(plfs.checkpoint_time
                                                            / max(plfs.n_checkpoints, 1),
                                                            120.0))
        mistuned = campaign(plfs_stack, interval=2.0)
        return plfs, direct, tuned, mistuned

    plfs, direct, tuned, mistuned = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nefficiency: plfs={plfs.efficiency:.3f} direct={direct.efficiency:.3f} "
          f"daly-tuned={tuned.efficiency:.3f} mistuned(2s)={mistuned.efficiency:.3f}")
    benchmark.extra_info["plfs_efficiency"] = plfs.efficiency
    benchmark.extra_info["direct_efficiency"] = direct.efficiency
    assert plfs.efficiency > direct.efficiency
    assert tuned.efficiency > mistuned.efficiency
