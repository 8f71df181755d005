"""Run bookkeeping and post-run analysis.

RunLog is the shared ground-truth ledger: senders record every emission,
receivers record every app-level delivery, and the protocol pieces bump
named counters.  Everything downstream (loss episodes, recovery rates,
the on-path FEC what-if, the egress cost model, CSV artifacts) is a pure
function of the RunLog plus the simulator's per-link byte counters, so
two runs with equal seeds produce byte-identical artifacts.

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
from dataclasses import dataclass, field

from .wire import HEADER_LEN

SUMMARY_SCHEMA = "caspr.summary/1"
EPISODES_SCHEMA = "caspr.episodes/1"
FEC_SCHEMA = "caspr.fec_whatif/1"
COST_SCHEMA = "caspr.cost/1"

RANDOM, MULTI, OUTAGE = "RANDOM", "MULTI", "OUTAGE"

# episode length class boundaries: 1 / 2..14 / >14
MULTI_MAX = 14

FEC_OVERHEADS = (20, 40, 100)
FEC_BLOCK = 5


@dataclass
class FlowTruth:
    flow_id: int
    packet_size: int
    send_ts: dict[int, int] = field(default_factory=dict)  # seq -> ts_us, in send order


class RunLog:
    def __init__(self):
        self.flows: dict[int, FlowTruth] = {}
        # per flow: (seq, ts_us, recovered)
        self.deliveries: dict[int, list[tuple[int, int, bool]]] = {}
        self.counters: Counter = Counter()

    def register_flow(self, flow_id: int, packet_size: int) -> None:
        if flow_id in self.flows:
            raise ValueError(f"flow {flow_id} registered twice")
        self.flows[flow_id] = FlowTruth(flow_id, packet_size)
        self.deliveries[flow_id] = []

    def record_send(self, flow_id: int, seq: int, ts_us: int) -> None:
        self.flows[flow_id].send_ts[seq] = ts_us

    def record_delivery(self, flow_id: int, seq: int, ts_us: int, recovered: bool) -> None:
        self.deliveries[flow_id].append((seq, ts_us, recovered))

    def bump(self, name: str, n: int = 1) -> None:
        self.counters[name] += n


@dataclass(frozen=True)
class Episode:
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


def classify_episodes(send_seqs: list[int], lost: set[int], flow_id: int) -> list[Episode]:
    """Group losses into runs of consecutively-sent lost packets."""
    episodes = []
    run_start = None
    run_len = 0
    for seq in send_seqs:
        if seq in lost:
            if run_start is None:
                run_start = seq
                run_len = 1
            else:
                run_len += 1
        elif run_start is not None:
            episodes.append(Episode(flow_id, run_start, run_len))
            run_start = None
    if run_start is not None:
        episodes.append(Episode(flow_id, run_start, run_len))
    return episodes


@dataclass
class FecLevel:
    overhead_pct: int
    lost: int = 0
    recovered: int = 0
    lost_in_outage: int = 0
    recovered_in_outage: int = 0

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


def fec_whatif(send_seqs: list[int], send_ts: dict[int, int], lost: set[int],
               outage_windows: list[tuple[int, int]],
               overheads: tuple[int, ...] = FEC_OVERHEADS) -> dict[int, FecLevel]:
    """On-path FEC counterfactual over one flow's direct-path trace.

    The sent stream is cut into consecutive 5-packet blocks; a level
    with n parity packets uses the observed fate of the next block's
    first n packets as the parity fate (parity would have traveled
    right behind the block through the same loss process).  A block's
    losses are recovered iff lost <= surviving parity.
    """
    levels = {pct: FecLevel(pct) for pct in overheads}
    for b in range((len(send_seqs) + FEC_BLOCK - 1) // FEC_BLOCK):
        block = send_seqs[b * FEC_BLOCK:(b + 1) * FEC_BLOCK]
        nxt = send_seqs[(b + 1) * FEC_BLOCK:(b + 2) * FEC_BLOCK]
        block_lost = [s for s in block if s in lost]
        if not block_lost:
            continue
        in_outage = any(
            any(start <= send_ts[s] < end for start, end in outage_windows)
            for s in block)
        for pct, level in levels.items():
            n_parity = max(1, pct * FEC_BLOCK // 100)
            parity_fates = nxt[:n_parity]
            surviving = sum(1 for s in parity_fates if s not in lost)
            # a truncated next block means the parity never existed
            surviving -= max(0, n_parity - len(parity_fates))
            ok = len(block_lost) <= max(0, surviving)
            level.lost += len(block_lost)
            level.recovered += len(block_lost) if ok else 0
            if in_outage:
                level.lost_in_outage += len(block_lost)
                level.recovered_in_outage += len(block_lost) if ok else 0
    return levels


@dataclass
class RunMetrics:
    """One seed's results, or several seeds pooled (seed "all")."""
    scenario: str
    seed: int | str
    duration_s: float
    flows: int = 0
    sent: int = 0
    lost: int = 0                # on the direct path
    recovered_1rtt: int = 0
    recovered_any: int = 0
    ratios: list[float] = field(default_factory=list)  # recovery time / RTT per recovered loss
    episodes: list[Episode] = field(default_factory=list)
    fec: dict[int, FecLevel] = field(
        default_factory=lambda: {pct: FecLevel(pct) for pct in FEC_OVERHEADS})
    counters: Counter = field(default_factory=Counter)
    # byte accounting
    dc1_egress_bytes: int = 0
    dc2_egress_recovery_bytes: int = 0
    dc2_egress_ctrl_bytes: int = 0
    dup_bytes: int = 0
    data_wire_bytes: int = 0     # all direct-path data, the full-relay baseline unit
    # losses whose send time fell inside a scheduled outage window
    in_outage_lost: int = 0
    in_outage_recovered_1rtt: int = 0

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


def analyze_run(scenario_name: str, seed: int, duration_s: float, rtt_us: int,
                run_log: RunLog, direct_losses: dict[int, set[int]],
                direct_one_way_us: int,
                outage_windows: dict[int, list[tuple[int, int]]],
                dc1_egress_bytes: int, dc2_egress_recovery_bytes: int,
                dc2_egress_ctrl_bytes: int, dup_bytes: int) -> RunMetrics:
    """Join ground truth with delivery logs into one run's metrics."""
    m = RunMetrics(scenario_name, seed, duration_s, flows=len(run_log.flows),
                   counters=Counter(run_log.counters),
                   dc1_egress_bytes=dc1_egress_bytes,
                   dc2_egress_recovery_bytes=dc2_egress_recovery_bytes,
                   dc2_egress_ctrl_bytes=dc2_egress_ctrl_bytes, dup_bytes=dup_bytes)
    for flow_id in sorted(run_log.flows):
        truth = run_log.flows[flow_id]
        lost = direct_losses.get(flow_id, set())
        windows = outage_windows.get(flow_id, [])
        send_seqs = list(truth.send_ts)
        m.sent += len(send_seqs)
        m.lost += len(lost)
        m.data_wire_bytes += len(send_seqs) * (HEADER_LEN + truth.packet_size)
        in_outage = {s for s in lost
                     if any(start <= truth.send_ts[s] < end for start, end in windows)}
        m.in_outage_lost += len(in_outage)
        recovered_at: dict[int, int] = {}
        for seq, ts, recovered in run_log.deliveries[flow_id]:
            if recovered and seq in lost and seq not in recovered_at:
                recovered_at[seq] = ts
        m.recovered_any += len(recovered_at)
        for seq, ts in sorted(recovered_at.items()):
            expected = truth.send_ts[seq] + direct_one_way_us
            ratio = (ts - expected) / rtt_us
            m.ratios.append(ratio)
            if ratio <= 1.0:
                m.recovered_1rtt += 1
                if seq in in_outage:
                    m.in_outage_recovered_1rtt += 1
        m.episodes.extend(classify_episodes(send_seqs, lost, flow_id))
        for pct, level in fec_whatif(send_seqs, truth.send_ts, lost, windows).items():
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
                        flows=max(m.flows for m in runs),  # seeds share the flow set
                        **{name: sum(getattr(m, name) for m in runs) for name in _SUMMED})
    for m in runs:
        pooled.ratios.extend(m.ratios)
        pooled.episodes.extend(m.episodes)
        pooled.counters.update(m.counters)
        for pct, level in m.fec.items():
            pooled.fec[pct].add(level)
    return pooled


def egress_dollars(n_bytes: int, price_per_gb: float) -> float:
    return n_bytes / 1e9 * price_per_gb


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
    in_outage_lost = sum(lv.lost_in_outage for lv in m.fec.values()) > 0
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
            "fec_rate_in_outage": level.rate_in_outage() if in_outage_lost else None,
            "caspr_rate_in_outage": m.in_outage_rate,
        })
    return rows


def write_fec_csv(path, runs: list[RunMetrics], pooled: RunMetrics) -> None:
    _write_csv(path, FEC_FIELDS, (row for m in [*runs, pooled] for row in fec_rows(m)))


COST_FIELDS = ["schema", "scenario", "seed", "component", "bytes", "dollars",
               "ratio_to_full_overlay"]


def cost_rows(m: RunMetrics, price_per_gb: float) -> list[dict]:
    def row(component, n_bytes, baseline=None):
        return {"schema": COST_SCHEMA, "scenario": m.scenario, "seed": m.seed,
                "component": component, "bytes": n_bytes,
                "dollars": egress_dollars(n_bytes, price_per_gb),
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


def write_cost_csv(path, runs: list[RunMetrics], pooled: RunMetrics,
                   price_per_gb: float) -> None:
    _write_csv(path, COST_FIELDS, (row for m in [*runs, pooled]
                                   for row in cost_rows(m, price_per_gb)))


def render_summary_text(m: RunMetrics, seeds: int, price_per_gb: float) -> str:
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
      f"DC1 {m.dc1_egress_bytes} B (${egress_dollars(m.dc1_egress_bytes, price_per_gb):.4f}), "
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
