"""Run bookkeeping and post-run analysis.

RunLog is the ground-truth ledger of what only the run can tell: each
flow's direct-path losses, each loss's first recovery, and the named
counters.  The runner sizes it from the scenario's flow set, one loss
map for each flow id 0..count-1.  Each direct link reports every packet
it drops, with its send time, straight to the ledger, and a receiver
notes each recovered delivery against the loss it repairs.  Sends and
plain deliveries leave nothing behind; the protocol pieces bump named
counters.  Every packet and byte total comes from the simulator's link
counters instead, and the name, timings and outage windows from the
scenario.  A flow's seqs are 0..n-1 in send order, and a scheduled
outage drops every packet sent inside its window, so everything
downstream (loss episodes, recovery rates, the on-path FEC what-if, the
egress cost model, CSV artifacts) is a pure function of the scenario,
the RunLog and the link counters; two runs with equal seeds produce
byte-identical artifacts.

Each seed's RunLog is analyzed once into a RunMetrics of run-wide totals.
A scenario's seeds are then pooled once, by summing packets and bytes
rather than averaging rates, into one more RunMetrics whose seed is
"all".  summary.csv, fec_whatif.csv and cost.csv hold each seed's rows
followed by the pooled rows, episodes.csv the seeds' rows only, and
summary.txt renders the pooled run.

The recovery-rate rule is strict: a lost packet counts as recovered only
if it reached the application within one direct-path RTT of the time it
would have arrived had it not been lost.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from collections.abc import Collection
from typing import NamedTuple

from .scenario import INTER_DC_LINK, Scenario, flow_links

SUMMARY_SCHEMA = "caspr.summary/1"
EPISODES_SCHEMA = "caspr.episodes/1"
FEC_SCHEMA = "caspr.fec_whatif/1"
COST_SCHEMA = "caspr.cost/1"

RANDOM, MULTI, OUTAGE = "RANDOM", "MULTI", "OUTAGE"

# episode length class boundaries: 1 / 2..14 / >14
MULTI_MAX = 14

FEC_OVERHEADS = (20, 40, 100)
FEC_BLOCK = 5

# cloud egress price, USD per GB
PRICE_PER_GB = 0.087


class Loss:
    """One packet the direct path dropped."""
    __slots__ = ("send_ts", "recovered_ts")

    def __init__(self, send_ts: int, recovered_ts: int | None = None):
        self.send_ts = send_ts
        self.recovered_ts = recovered_ts  # its first recovered delivery

    def __eq__(self, other):
        if other.__class__ is not Loss:
            return NotImplemented
        return (self.send_ts, self.recovered_ts) == (other.send_ts, other.recovered_ts)

    def __repr__(self) -> str:
        return f"Loss({self.send_ts!r}, {self.recovered_ts!r})"


class RunLog:
    """The ledger of flows 0..flows-1."""

    def __init__(self, flows: int):
        # flow -> seq -> Loss; a link drops at send time, so in seq order
        self.losses: dict[int, dict[int, Loss]] = {f: {} for f in range(flows)}
        self.counters: Counter = Counter()

    def record_loss(self, pkt, ts_us: int) -> None:
        """The direct path dropped pkt, sent at ts_us: a link's on_drop."""
        self.losses[pkt.flow_id][pkt.seq] = Loss(ts_us)

    def record_recovery(self, flow_id: int, seq: int, ts_us: int) -> None:
        """seq reached its receiver at ts_us over the cloud path."""
        loss = self.losses[flow_id].get(seq)
        if loss is not None and loss.recovered_ts is None:
            loss.recovered_ts = ts_us

    def bump(self, name: str, n: int = 1) -> None:
        self.counters[name] += n


class Episode(NamedTuple):
    flow_id: int
    start_seq: int
    length: int

    @property
    def klass(self) -> str:
        if self.length <= 1:
            return RANDOM
        if self.length <= MULTI_MAX:
            return MULTI
        return OUTAGE


def classify_episodes(lost_seqs, flow_id: int) -> list[Episode]:
    """Group losses, given in seq order, into runs of consecutive seqs
    (a flow's seqs are numbered in send order)."""
    episodes = []
    run_start = prev = None
    for seq in lost_seqs:
        if prev is None or seq != prev + 1:
            if run_start is not None:
                episodes.append(Episode(flow_id, run_start, prev - run_start + 1))
            run_start = seq
        prev = seq
    if run_start is not None:
        episodes.append(Episode(flow_id, run_start, prev - run_start + 1))
    return episodes


class FecLevel:
    def __init__(self, overhead_pct: int):
        self.overhead_pct = overhead_pct
        self.lost = 0
        self.recovered = 0
        self.lost_in_outage = 0
        self.recovered_in_outage = 0

    def add(self, other: FecLevel) -> None:
        self.lost += other.lost
        self.recovered += other.recovered
        self.lost_in_outage += other.lost_in_outage
        self.recovered_in_outage += other.recovered_in_outage

    def rate(self) -> float:
        return self.recovered / self.lost if self.lost else 1.0

    def rate_in_outage(self) -> float | None:
        if not self.lost_in_outage:
            return None
        return self.recovered_in_outage / self.lost_in_outage


def fec_whatif(sent: int, lost: Collection[int], in_outage: set[int],
               overheads: tuple[int, ...] = FEC_OVERHEADS) -> dict[int, FecLevel]:
    """On-path FEC counterfactual over one flow's direct-path trace.

    The sent stream, seqs 0..sent-1, is cut into consecutive 5-packet
    blocks; a level with n parity packets uses the observed fate of the
    next block's first n packets as the parity fate (parity would have
    traveled right behind the block through the same loss process).  A
    block's losses are recovered iff lost <= surviving parity.
    lost holds the lost seqs; a block counts as in an outage if one of
    its losses is in in_outage, the lost seqs sent inside an outage
    window.
    """
    levels = {pct: FecLevel(pct) for pct in overheads}
    blocks: dict[int, list[int]] = {}
    for seq in lost:
        blocks.setdefault(seq // FEC_BLOCK, []).append(seq)
    for b, block_lost in blocks.items():
        outage_block = not in_outage.isdisjoint(block_lost)
        nxt = (b + 1) * FEC_BLOCK
        for pct, level in levels.items():
            n_parity = max(1, pct * FEC_BLOCK // 100)
            parity_fates = range(nxt, min(nxt + n_parity, nxt + FEC_BLOCK, sent))
            surviving = sum(1 for s in parity_fates if s not in lost)
            # a truncated next block means the parity never existed
            surviving -= max(0, n_parity - len(parity_fates))
            ok = len(block_lost) <= max(0, surviving)
            level.lost += len(block_lost)
            level.recovered += len(block_lost) if ok else 0
            if outage_block:
                level.lost_in_outage += len(block_lost)
                level.recovered_in_outage += len(block_lost) if ok else 0
    return levels


class RunMetrics:
    """One seed's results, or several seeds pooled (seed "all")."""

    def __init__(self, scenario: str, seed: int | str, duration_s: float, flows: int,
                 counters: Counter):
        self.scenario = scenario
        self.seed = seed
        self.duration_s = duration_s
        self.flows = flows
        self.sent = 0
        self.lost = 0                # on the direct path
        self.recovered_1rtt = 0
        self.recovered_any = 0
        self.ratios: list[float] = []  # recovery time / RTT per recovered loss
        self.episodes: list[Episode] = []
        self.fec = {pct: FecLevel(pct) for pct in FEC_OVERHEADS}
        self.counters = counters
        # byte accounting
        self.dc1_egress_bytes = 0
        self.dc2_egress_recovery_bytes = 0
        self.dc2_egress_ctrl_bytes = 0
        self.dup_bytes = 0
        self.data_wire_bytes = 0     # all direct-path data, the full-relay baseline unit
        # losses whose send time fell inside a scheduled outage window
        self.in_outage_lost = 0
        self.in_outage_recovered_1rtt = 0

    @property
    def recovery_rate(self) -> float:
        return self.recovered_1rtt / self.lost if self.lost else 1.0

    @property
    def within_half_rtt_frac(self) -> float | None:
        if not self.ratios:
            return None
        return sum(1 for r in self.ratios if r <= 0.5) / len(self.ratios)

    @property
    def in_outage_rate(self) -> float | None:
        if not self.in_outage_lost:
            return None
        return self.in_outage_recovered_1rtt / self.in_outage_lost

    @property
    def caspr_bytes(self) -> int:
        """Cloud egress of the system: inter-DC parity, recovery and control."""
        return self.dc1_egress_bytes + self.dc2_egress_recovery_bytes + self.dc2_egress_ctrl_bytes

    @property
    def overlay_bytes(self) -> int:
        """Cloud egress of a full overlay: all data leaves DC1 and then DC2."""
        return 2 * self.data_wire_bytes


def analyze_run(cfg: Scenario, seed: int, run_log: RunLog, links) -> RunMetrics:
    """Turn one run's ledger into its metrics.  links maps each link
    name to its link, whose counters give every packet and byte total."""
    one_way_us, rtt_us = cfg.topology.direct.delay_us, cfg.rtt_us
    m = RunMetrics(cfg.name, seed, cfg.duration_s, cfg.flows.count, Counter(run_log.counters))
    m.dc1_egress_bytes = links[INTER_DC_LINK].sent_bytes
    for flow_id, losses in run_log.losses.items():  # in flow id order
        fl = flow_links(flow_id)
        direct = links[fl.direct]
        m.sent += direct.sent_count
        m.data_wire_bytes += direct.sent_bytes
        m.dup_bytes += links[fl.dup].sent_bytes
        m.dc2_egress_recovery_bytes += links[fl.down].sent_bytes
        m.dc2_egress_ctrl_bytes += links[fl.down_ctrl].sent_bytes
        windows = cfg.outages_us(flow_id)
        in_outage = {seq for seq, loss in losses.items()
                     if any(start <= loss.send_ts < end for start, end in windows)}
        m.lost += len(losses)
        m.in_outage_lost += len(in_outage)
        for seq, loss in losses.items():
            if loss.recovered_ts is None:
                continue
            m.recovered_any += 1
            ratio = (loss.recovered_ts - (loss.send_ts + one_way_us)) / rtt_us
            m.ratios.append(ratio)
            if ratio <= 1.0:
                m.recovered_1rtt += 1
                if seq in in_outage:
                    m.in_outage_recovered_1rtt += 1
        m.episodes.extend(classify_episodes(losses, flow_id))
        for pct, level in fec_whatif(direct.sent_count, losses, in_outage).items():
            m.fec[pct].add(level)
    return m


# run-wide totals that pool by summing
_SUMMED = ("sent", "lost", "recovered_1rtt", "recovered_any", "dc1_egress_bytes",
           "dc2_egress_recovery_bytes", "dc2_egress_ctrl_bytes", "dup_bytes",
           "data_wire_bytes", "in_outage_lost", "in_outage_recovered_1rtt")


def pool_runs(runs: list[RunMetrics]) -> RunMetrics:
    """Aggregate seeds by pooling packets, not averaging rates."""
    if not runs:
        raise ValueError("pool_runs needs at least one run")
    pooled = RunMetrics(runs[0].scenario, "all", sum(m.duration_s for m in runs),
                        max(m.flows for m in runs),  # seeds share the flow set
                        Counter())
    for name in _SUMMED:
        setattr(pooled, name, sum(getattr(m, name) for m in runs))
    for m in runs:
        pooled.ratios.extend(m.ratios)
        pooled.episodes.extend(m.episodes)
        pooled.counters.update(m.counters)
        for pct, level in m.fec.items():
            pooled.fec[pct].add(level)
    return pooled


def egress_dollars(n_bytes: int) -> float:
    return n_bytes / 1e9 * PRICE_PER_GB


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.6f}"
    if x is None:
        return ""
    return str(x)


def _write_csv(path, fields: list[str], rows) -> None:
    with open(path, "w", newline="") as f:
        w = csv.DictWriter(f, fields)
        w.writeheader()
        for row in rows:
            w.writerow({k: _fmt(v) for k, v in row.items()})


COUNTER_COLS = ["nacks_sent", "gap_nacks", "timer_nacks", "acks_sent", "coop_reqs",
                "coop_resps_pos", "coop_resps_neg", "late_resps", "confirm_queries",
                "confirm_yes", "confirm_no", "tasks_opened", "tasks_decoded",
                "failed_silent", "suppressed", "evictions", "in_forwards",
                "proactive_entries", "dup_arrivals", "discarded_parity",
                "cache_resends", "abandoned_holes", "claims_retracted"]

SUMMARY_FIELDS = (["schema", "scenario", "seed", "flows", "duration_s", "sent",
                   "direct_lost", "recovered_1rtt", "recovery_rate",
                   "recovered_any", "within_half_rtt_frac", "mean_ratio",
                   "p95_ratio"] + COUNTER_COLS +
                  ["dc1_egress_bytes", "dc2_egress_recovery_bytes",
                   "dc2_egress_ctrl_bytes", "dup_bytes", "data_wire_bytes"])


def summary_row(m: RunMetrics) -> dict:
    ratios = sorted(m.ratios)
    row = {
        "schema": SUMMARY_SCHEMA,
        "scenario": m.scenario,
        "seed": m.seed,
        "flows": m.flows,
        "duration_s": m.duration_s,
        "sent": m.sent,
        "direct_lost": m.lost,
        "recovered_1rtt": m.recovered_1rtt,
        "recovery_rate": m.recovery_rate,
        "recovered_any": m.recovered_any,
        "within_half_rtt_frac": m.within_half_rtt_frac,
        "mean_ratio": sum(ratios) / len(ratios) if ratios else None,
        "p95_ratio": ratios[min(len(ratios) - 1, int(0.95 * len(ratios)))] if ratios else None,
        "dc1_egress_bytes": m.dc1_egress_bytes,
        "dc2_egress_recovery_bytes": m.dc2_egress_recovery_bytes,
        "dc2_egress_ctrl_bytes": m.dc2_egress_ctrl_bytes,
        "dup_bytes": m.dup_bytes,
        "data_wire_bytes": m.data_wire_bytes,
    }
    for name in COUNTER_COLS:
        row[name] = m.counters.get(name, 0)
    return row


def write_summary_csv(path, runs: list[RunMetrics], pooled: RunMetrics) -> None:
    _write_csv(path, SUMMARY_FIELDS, map(summary_row, [*runs, pooled]))


EPISODE_FIELDS = ["schema", "scenario", "seed", "flow", "start_seq", "length", "klass"]


def write_episodes_csv(path, runs: list[RunMetrics]) -> None:
    _write_csv(path, EPISODE_FIELDS, (
        {"schema": EPISODES_SCHEMA, "scenario": m.scenario, "seed": m.seed,
         "flow": ep.flow_id, "start_seq": ep.start_seq, "length": ep.length,
         "klass": ep.klass}
        for m in runs for ep in m.episodes))


FEC_FIELDS = ["schema", "scenario", "seed", "overhead_pct", "fec_rate",
              "caspr_rate", "delta_points", "pct_increase",
              "fec_rate_in_outage", "caspr_rate_in_outage"]


def fec_rows(m: RunMetrics) -> list[dict]:
    rows = []
    caspr = m.recovery_rate
    for pct in sorted(m.fec):
        level = m.fec[pct]
        fec_rate = level.rate()
        rows.append({
            "schema": FEC_SCHEMA, "scenario": m.scenario, "seed": m.seed,
            "overhead_pct": pct,
            "fec_rate": fec_rate,
            "caspr_rate": caspr,
            "delta_points": (caspr - fec_rate) * 100.0,
            "pct_increase": ((caspr - fec_rate) / fec_rate * 100.0) if fec_rate > 0 else None,
            "fec_rate_in_outage": level.rate_in_outage(),
            "caspr_rate_in_outage": m.in_outage_rate,
        })
    return rows


def write_fec_csv(path, runs: list[RunMetrics], pooled: RunMetrics) -> None:
    _write_csv(path, FEC_FIELDS, (row for m in [*runs, pooled] for row in fec_rows(m)))


COST_FIELDS = ["schema", "scenario", "seed", "component", "bytes", "dollars",
               "ratio_to_full_overlay"]


def cost_rows(m: RunMetrics) -> list[dict]:
    def row(component, n_bytes, baseline=None):
        return {"schema": COST_SCHEMA, "scenario": m.scenario, "seed": m.seed,
                "component": component, "bytes": n_bytes,
                "dollars": egress_dollars(n_bytes),
                "ratio_to_full_overlay": (n_bytes / baseline) if baseline else None}

    return [
        row("dc1_egress", m.dc1_egress_bytes, m.data_wire_bytes),
        row("dc2_egress_recovery", m.dc2_egress_recovery_bytes),
        row("dc2_egress_ctrl", m.dc2_egress_ctrl_bytes),
        row("caspr_total", m.caspr_bytes, m.overlay_bytes),
        row("overlay_interdc_baseline", m.data_wire_bytes),
        row("overlay_total_baseline", m.overlay_bytes),
        row("sender_duplication", m.dup_bytes),
    ]


def write_cost_csv(path, runs: list[RunMetrics], pooled: RunMetrics) -> None:
    _write_csv(path, COST_FIELDS, (row for m in [*runs, pooled] for row in cost_rows(m)))


def render_summary_text(m: RunMetrics, seeds: int) -> str:
    """The human-readable summary.txt of a run, from its pooled metrics."""
    out = io.StringIO()
    p = lambda s="": print(s, file=out)
    p(f"scenario {m.scenario}: {seeds} seed(s), "
      f"{m.duration_s:.1f}s simulated, {m.flows} flows")
    p(f"  sent {m.sent} packets, lost {m.lost} on the direct path "
      f"({m.lost / m.sent * 100 if m.sent else 0:.2f}%)")
    p(f"  recovered within 1 RTT: {m.recovered_1rtt} "
      f"({m.recovery_rate * 100:.1f}% of losses); "
      f"recovered at any time: {m.recovered_any}")
    if m.ratios:
        p(f"  of recovered: {m.within_half_rtt_frac * 100:.1f}% within 0.5 RTT")
    by_class = Counter(ep.klass for ep in m.episodes)
    p(f"  loss episodes: {by_class.get(RANDOM, 0)} random, "
      f"{by_class.get(MULTI, 0)} multi, {by_class.get(OUTAGE, 0)} outage")
    p(f"  NACKs {m.counters.get('nacks_sent', 0)} "
      f"(gap {m.counters.get('gap_nacks', 0)}, timer {m.counters.get('timer_nacks', 0)}), "
      f"ACKs {m.counters.get('acks_sent', 0)}, "
      f"failed-silent {m.counters.get('failed_silent', 0)}, "
      f"evictions {m.counters.get('evictions', 0)}")
    p("  cloud egress: "
      f"DC1 {m.dc1_egress_bytes} B (${egress_dollars(m.dc1_egress_bytes):.4f}), "
      f"DC2 recovery {m.dc2_egress_recovery_bytes} B, ctrl {m.dc2_egress_ctrl_bytes} B")
    if m.data_wire_bytes:
        p(f"  vs full overlay {m.overlay_bytes} B: "
          f"{m.caspr_bytes / m.overlay_bytes * 100:.2f}% of baseline "
          f"(inter-DC alone {m.dc1_egress_bytes / m.data_wire_bytes * 100:.2f}%)")
    for pct in sorted(m.fec):
        level = m.fec[pct]
        extra = ""
        if level.lost_in_outage:
            extra = (f", in-outage rate {level.rate_in_outage() * 100:.1f}% "
                     f"(system: {m.in_outage_rate * 100:.1f}%)")
        p(f"  FEC what-if {pct}% overhead: recovers {level.rate() * 100:.1f}% "
          f"(system: {m.recovery_rate * 100:.1f}%){extra}")
    return out.getvalue()
