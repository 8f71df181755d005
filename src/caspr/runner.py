"""Turns a validated scenario into simulator runs and artifact files.

Topology per scenario (one ingress, one egress DC):

    s{i} --direct--> r{i}            lossy wide-area path under test
    s{i} --access--> dc1             duplicated traffic into the cloud
    dc1 --inter_dc--> dc2            parity only
    dc2 <--recovery--> r{i}          NACK/ACK/coop up, recovery down
    dc2 <--ctrl-----> r{i}           loss-free control (confirm handshake)

Links are named ``src>dst``, with a ``:ctrl`` suffix on the control
pair; ``scenario.flow_links`` spells a flow's names once and
``scenario.INTER_DC_LINK`` the inter-DC one.  The runner builds the
links.  Each sender and receiver takes its flow id and the validated
scenario: it names itself from the flow id, takes the links it sends
on from ``flow_links``, and reads its timings from the scenario, which
derives each one once.  The scenario also fixes the flow set (ids
0..count-1), so the run log and both DC nodes are sized by it when
they are built: the log keeps one loss map per flow, DC1 puts flow f
in coding group f // k_max, and DC2 keeps each receiver's links and
NACK count by its flow id.  Each direct link hands its drops to the
log's ``record_loss``; senders never see the log.  After the run,
``metrics.analyze_run`` reads the log, the scenario and the link table,
which holds every packet and byte total.

Every run self-checks two invariants before its metrics are trusted:
link byte conservation, and (when the direct paths lost nothing) that
not a single recovery byte left DC2 toward the receivers.

Seeds are independent simulations, so ``run_scenario`` runs them in
forked worker processes, one per CPU this process may use, each taking
a stride of the seeds, and collects their metrics in seed order.  The
workers fork through ``ahead.forked``, as the split does, and post their
metrics back over a pipe.  The artifacts are byte-identical to a serial
run; one usable CPU (``taskset -c 0``) runs every seed in process.

One untraced seed with a second usable CPU is split instead
(``ahead``): the senders and DC1 are the topology's feed-forward group.
They run ahead in a forked process and stream their deliveries to the
receivers and DC2, which run here, with the lookahead min(direct,
inter-DC) delay minus jitter; DC1's ``evictions`` reach the run log as
the split's tally.  A traced seed stays in one process, since one
process writes its trace.
"""

from __future__ import annotations

import os
from functools import partial

from . import metrics, netsim
from .egress import EgressRecovery
from .endpoint import Receiver, Sender
from .ingress import IngressCoder
from .netsim import InvariantViolation
from .scenario import INTER_DC_LINK, Scenario, flow_links


def run_seed(cfg: Scenario, seed: int, trace_path: str | None = None,
             split: bool = False) -> metrics.RunMetrics:
    """One simulation at one seed, returning its analyzed metrics.  With
    split, the senders and DC1 run ahead in a forked process."""
    topo = cfg.topology
    links = [flow_links(i) for i in range(cfg.flows.count)]

    trace_file = open(trace_path, "w") if trace_path else None
    sim = netsim.Simulator(master_seed=seed, trace_file=trace_file)
    try:
        run_log = metrics.RunLog(cfg.flows.count)

        def add_link(name, src, dst, link, drop):
            return sim.add_link(name, src, dst, delay_us=link.delay_us,
                                jitter_us=link.jitter_us, drop=drop)

        def add_lossy_link(name, src, dst, link):
            add_link(name, src, dst, link, link.dropper(sim.loss_rng(name)))

        for i, fl in enumerate(links):
            # the ledger learns each direct-path loss and its send time here
            direct = add_link(fl.direct, f"s{i}", f"r{i}", topo.direct,
                              cfg.direct_dropper(i, sim.loss_rng(fl.direct)))
            direct.on_drop = run_log.record_loss
            add_lossy_link(fl.dup, f"s{i}", "dc1", topo.access)
        add_lossy_link(INTER_DC_LINK, "dc1", "dc2", topo.inter_dc)
        for i, fl in enumerate(links):
            add_lossy_link(fl.down, "dc2", f"r{i}", topo.recovery)
            add_lossy_link(fl.up, f"r{i}", "dc2", topo.recovery)
            # control stays loss-free by construction
            add_link(fl.down_ctrl, "dc2", f"r{i}", topo.recovery, None)
            add_link(fl.up_ctrl, f"r{i}", "dc2", topo.recovery, None)

        for dc in (IngressCoder(cfg, run_log), EgressRecovery(cfg, run_log)):
            sim.add_node(dc.name, dc)
        for i in range(cfg.flows.count):
            sender = Sender(i, cfg)
            sim.add_node(sender.name, sender)
            sim.at(sender.start_us, sender.name, ("burst",))
            receiver = Receiver(i, cfg, run_log)
            sim.add_node(receiver.name, receiver)

        if split:
            from . import ahead  # imported, and so compiled, only to split
            ahead.run(sim, cfg.duration_us, tally=run_log.counters)
        else:
            sim.run(until_us=cfg.duration_us)
        sim.check_conservation()

        m = metrics.analyze_run(cfg, seed, run_log, sim.links)
        if not m.lost and m.dc2_egress_recovery_bytes:
            raise InvariantViolation(
                f"lossless run moved {m.dc2_egress_recovery_bytes} recovery bytes out of DC2")
        return m
    finally:
        # nodes and their bound handlers reach the simulator through
        # node.env; closing breaks that cycle, so the run is freed on
        # return, not at the next GC pass
        sim.close()
        if trace_file:
            trace_file.close()


def _worker_count(n_seeds: int) -> int:
    """Processes to run n_seeds on: one per seed, at most one per usable CPU."""
    if not hasattr(os, "fork"):  # seed workers and the split both fork
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity on this platform
        cpus = os.cpu_count() or 1
    return min(n_seeds, cpus)


def run_scenario(cfg: Scenario, out_dir: str, seeds: list[int] | None = None,
                 trace: bool = False) -> list[metrics.RunMetrics]:
    """Run every seed and write the artifact set into out_dir.

    With more than one seed and more than one usable CPU, the seeds run
    in forked worker processes (``ahead.forked``), worker w of n taking
    every n-th seed from the w-th; their metrics come back in seed order,
    so the artifacts are the same as a serial run's.  An exception raised
    by a seed reaches the caller with its type and message, a worker that
    dies before posting its seeds' metrics raises RuntimeError, and no
    worker outlives the call.  Repeated seeds raise ValueError, since
    they would share a trace file.
    """
    seeds = list(seeds) if seeds else list(cfg.seeds)
    if len(set(seeds)) != len(seeds):
        raise ValueError(f"seeds repeat: {seeds}")
    os.makedirs(out_dir, exist_ok=True)
    trace_paths = [os.path.join(out_dir, f"trace-seed{seed}.jsonl") if trace else None
                   for seed in seeds]
    workers = _worker_count(len(seeds))
    if workers > 1:
        from . import ahead  # imported, and so compiled, only to fork

        def stride(w, out):
            # a forked child sees the module as the caller left it, so a
            # replaced run_seed (which need not pickle) runs here too
            for seed, path in zip(seeds[w::workers], trace_paths[w::workers]):
                ahead.post(out, run_seed(cfg, seed, path))

        # seed i's metrics are the (i // workers)-th post of worker i % workers
        runs = ahead.forked([partial(stride, w) for w in range(workers)],
                            lambda inputs: [ahead.receive(inputs[i % workers])
                                            for i in range(len(seeds))])
    else:
        # one untraced seed splits when a second CPU can take the
        # senders and DC1
        split = len(seeds) == 1 and not trace and _worker_count(2) > 1
        runs = [run_seed(cfg, seed, path, split=split)
                for seed, path in zip(seeds, trace_paths)]
    pooled = metrics.pool_runs(runs)
    metrics.write_summary_csv(os.path.join(out_dir, "summary.csv"), runs, pooled)
    metrics.write_episodes_csv(os.path.join(out_dir, "episodes.csv"), runs)
    metrics.write_fec_csv(os.path.join(out_dir, "fec_whatif.csv"), runs, pooled)
    metrics.write_cost_csv(os.path.join(out_dir, "cost.csv"), runs, pooled)
    with open(os.path.join(out_dir, "summary.txt"), "w") as f:
        f.write(metrics.render_summary_text(pooled, len(runs)))
    return runs
