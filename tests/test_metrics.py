"""Episode taxonomy, FEC counterfactual, run metrics, CSV artifacts.

The fec_whatif cases are hand-computed from the rule set: blocks of
five, n parity fates read off the next block's first n packets, a
truncated next block counts as parity that never existed.  The run log
is fed as a run feeds it: the direct path's losses with their send
times, and recovered deliveries.  The packet and byte totals come from
a link table shaped like the simulator's.
"""

import csv
from types import SimpleNamespace

import pytest
from _stub import UNIT
from hypothesis import given, settings
from hypothesis import strategies as st

from caspr.metrics import (
    COUNTER_COLS,
    Episode,
    FecLevel,
    Loss,
    MULTI,
    OUTAGE,
    PRICE_PER_GB,
    RANDOM,
    RunLog,
    analyze_run,
    classify_episodes,
    cost_rows,
    egress_dollars,
    fec_rows,
    fec_whatif,
    pool_runs,
    summary_row,
    write_cost_csv,
    write_episodes_csv,
    write_fec_csv,
    write_summary_csv,
)
from caspr.scenario import INTER_DC_LINK, apply_overrides, flow_links, validate
from caspr.wire import DataPacket

# -- episodes -----------------------------------------------------------------


def test_classify_episodes_basic_runs():
    assert classify_episodes([], 0) == []
    assert classify_episodes([3], 0) == [Episode(0, 3, 1)]
    assert classify_episodes([3, 4, 7], 0) == [
        Episode(0, 3, 2), Episode(0, 7, 1)]
    # a run touching the end of the trace still closes
    assert classify_episodes([8, 9], 0) == [Episode(0, 8, 2)]


def test_classify_episodes_splits_runs_at_seq_gaps():
    # seqs number a flow's sends in order, bursts included, so a gap in
    # the lost seqs is a delivered packet between two episodes
    assert classify_episodes([1, 2, 7, 8, 9, 11], 0) == [
        Episode(0, 1, 2), Episode(0, 7, 3), Episode(0, 11, 1)]


def test_episode_class_boundaries():
    assert Episode(0, 0, 1).klass == RANDOM
    assert Episode(0, 0, 2).klass == MULTI
    assert Episode(0, 0, 14).klass == MULTI
    assert Episode(0, 0, 15).klass == OUTAGE


# -- FEC what-if --------------------------------------------------------------


def test_fec_single_loss_recovered_at_all_levels():
    levels = fec_whatif(15, {2}, set())
    for pct in (20, 40, 100):
        assert levels[pct].lost == 1
        assert levels[pct].recovered == 1
        assert levels[pct].rate() == 1.0


def test_fec_double_loss_needs_two_parity():
    levels = fec_whatif(15, {2, 3}, set())
    assert (levels[20].lost, levels[20].recovered) == (2, 0)
    assert (levels[40].lost, levels[40].recovered) == (2, 2)
    assert (levels[100].lost, levels[100].recovered) == (2, 2)


def test_fec_parity_fate_is_next_blocks_loss_pattern():
    # block 0 loses seq 2; its only 20% parity rides as seq 5, also lost
    levels = fec_whatif(15, {2, 5}, set())
    assert (levels[20].lost, levels[20].recovered) == (2, 1)  # block 1 only
    assert (levels[40].lost, levels[40].recovered) == (2, 2)


def test_fec_truncated_next_block_counts_as_lost_parity():
    # seven sent: the last block is 5,6 and has no next block
    levels = fec_whatif(7, {6}, set())
    for pct in (20, 40, 100):
        assert (levels[pct].lost, levels[pct].recovered) == (1, 0)


def test_fec_partial_truncation_hits_high_overhead_hardest():
    # 12 packets: block 1 is full but only two of its parity fates exist.
    # The nominal 100% level needs five, so truncation sinks it while the
    # 20% level sails through: more parity, more stream-end exposure.
    levels = fec_whatif(12, {7}, set())
    assert (levels[20].lost, levels[20].recovered) == (1, 1)
    assert (levels[100].lost, levels[100].recovered) == (1, 0)


def test_fec_outage_window_marks_blocks_by_send_time():
    # one send every 10 ms; only seq 2's send time falls in the window
    log = make_log(lost={2, 7})
    m = analyze_run(scenario_of(outages=[window(20_000, 40_001)]), 1, log,
                    link_table([15]))
    levels = m.fec
    assert levels[20].lost == 2
    assert levels[20].lost_in_outage == 1          # only block 0 overlaps
    assert levels[20].recovered_in_outage == 1
    assert levels[20].rate_in_outage() == 1.0
    clean = analyze_run(scenario_of(outages=[window(0, 1)]), 1, make_log(lost={7}),
                        link_table([15])).fec
    assert clean[20].rate_in_outage() is None      # no losses in outage


def test_fec_level_rate_with_no_losses():
    assert FecLevel(20).rate() == 1.0


# -- analyze_run --------------------------------------------------------------


def window(start_us, end_us, flow=0):
    return {"flow": flow, "start_s": start_us / 1e6, "end_s": end_us / 1e6}


def scenario_of(flows=1, duration_s=1.0, outages=()):
    """Scenario "t" of ``flows`` flows over duration_s, with a 50 ms
    one-way direct path (a 100 ms RTT) and the given outages."""
    doc = apply_overrides(UNIT, ["name=t", f"flows.count={flows}",
                                 f"duration_s={duration_s}", "cooldown_s=0.5",
                                 "topology.direct.delay_ms=50"])
    return validate({**doc, "outages": list(outages)})


def counts(n, n_bytes):
    return SimpleNamespace(sent_count=n, sent_bytes=n_bytes)


def link_table(sent, size=132, dc1=0, recovery=0, ctrl=0, dup=0):
    """The simulator's links as analyze_run reads them: flow f sends
    sent[f] packets of size bytes on its direct link, and the other byte
    totals sit on flow 0's links."""
    table = {INTER_DC_LINK: counts(0, dc1)}
    for f, n in enumerate(sent):
        fl = flow_links(f)
        first = f == 0
        table.update({fl.direct: counts(n, n * size), fl.dup: counts(0, dup * first),
                      fl.down: counts(0, recovery * first),
                      fl.down_ctrl: counts(0, ctrl * first)})
    return table


def make_log(lost=()):
    """Flow 0's ledger: seqs in lost dropped, one send every 10 ms."""
    log = RunLog(1)
    for seq in sorted(lost):
        log.record_loss(DataPacket(0, seq, seq * 10_000, b""), seq * 10_000)
    return log


def test_analyze_run_recovery_ratio_join():
    log = make_log(lost={1})
    log.record_recovery(0, 1, 130_000)
    log.record_recovery(0, 1, 900_000)   # a later recovery is ignored
    log.record_recovery(0, 0, 60_000)    # recovered copy of a non-loss
    # the ledger keeps the one loss and its first recovery, nothing else
    assert log.losses == {0: {1: Loss(10_000, 130_000)}}
    m = analyze_run(scenario_of(), 1, log,
                    link_table([3], dc1=700, recovery=100, ctrl=10, dup=1000))
    assert (m.sent, m.lost, m.recovered_1rtt, m.recovered_any) == (3, 1, 1, 1)
    # expected arrival 60_000, recovered at 130_000: 0.7 RTT late
    assert m.ratios == [0.7]
    assert m.recovery_rate == 1.0
    assert m.within_half_rtt_frac == 0.0
    assert m.episodes == [Episode(0, 1, 1)]
    assert m.data_wire_bytes == 3 * 132
    assert m.counters == log.counters


def test_analyze_run_reads_totals_by_link_role():
    links = {INTER_DC_LINK: counts(9, 700)}
    for f in range(2):
        fl = flow_links(f)
        links.update({fl.direct: counts(3 + f, 10 + f), fl.dup: counts(1, 100 + f),
                      fl.up: counts(1, 1_000 + f), fl.up_ctrl: counts(1, 1_000 + f),
                      fl.down: counts(1, 10_000 + f),
                      fl.down_ctrl: counts(1, 100_000 + f)})
    m = analyze_run(scenario_of(flows=2), 1, RunLog(2), links)
    assert (m.scenario, m.flows, m.duration_s) == ("t", 2, 1.0)
    assert (m.sent, m.data_wire_bytes, m.dup_bytes, m.dc1_egress_bytes) == (7, 21, 201, 700)
    # the receivers' upstream links are not cloud egress
    assert (m.dc2_egress_recovery_bytes, m.dc2_egress_ctrl_bytes) == (20_001, 200_001)


def test_analyze_run_lossless():
    log = make_log()
    assert log.losses == {0: {}}
    m = analyze_run(scenario_of(), 1, log, link_table([3]))
    assert m.lost == 0
    assert m.recovery_rate == 1.0
    assert m.episodes == []
    assert m.within_half_rtt_frac is None


def test_analyze_run_unrecovered_loss():
    m = analyze_run(scenario_of(), 1, make_log(lost={1}), link_table([3]))
    assert (m.lost, m.recovered_1rtt, m.recovered_any) == (1, 0, 0)
    assert m.recovery_rate == 0.0


# -- pooling and artifacts ------------------------------------------------------


def two_runs():
    runs = []
    for seed, loss_seq in ((1, 1), (2, 2)):
        log = make_log(lost={loss_seq})
        log.record_recovery(0, loss_seq, loss_seq * 10_000 + 100_000)
        log.bump("nacks_sent")
        runs.append(analyze_run(scenario_of(), seed, log,
                                link_table([3], dc1=700, recovery=100, ctrl=10, dup=1000)))
    return runs


def test_pool_runs_pools_packets():
    runs = two_runs()
    pooled = pool_runs(runs)
    assert pooled.sent == 6
    assert pooled.lost == 2
    assert pooled.recovered_1rtt == 2
    assert pooled.duration_s == 2.0
    assert pooled.counters["nacks_sent"] == 2
    assert pooled.dc1_egress_bytes == 1400
    assert len(pooled.ratios) == 2
    assert summary_row(pooled)["seed"] == "all"


def test_pool_runs_rejects_no_runs():
    with pytest.raises(ValueError):
        pool_runs([])


@st.composite
def random_runs(draw, seed):
    """One analyzed run of a few short flows with random losses and repairs."""
    flows = draw(st.integers(1, 3))
    log = RunLog(flows)
    sent, outages = [], []
    for flow_id in range(flows):
        ts = 0
        sent.append(draw(st.integers(0, 25)))
        for seq in range(sent[-1]):
            ts += draw(st.integers(1, 20_000))
            if not draw(st.booleans()):
                continue
            log.record_loss(DataPacket(flow_id, seq, ts, b""), ts)
            late = draw(st.none() | st.integers(-10_000, 300_000))
            if late is not None:
                log.record_recovery(flow_id, seq, ts + 50_000 + late)
        if draw(st.booleans()):
            start = draw(st.integers(0, 300_000))
            outages.append(window(start, start + draw(st.integers(1, 200_000)), flow_id))
    for name in draw(st.lists(st.sampled_from(COUNTER_COLS), max_size=8)):
        log.bump(name)
    n_bytes = st.integers(0, 10**6)
    cfg = scenario_of(flows, draw(st.sampled_from([1, 2.5])), outages)
    return analyze_run(cfg, seed, log, link_table(
        sent, draw(st.integers(32, 96)), draw(n_bytes), draw(n_bytes),
        draw(n_bytes), draw(n_bytes)))


SUMMED_COLS = (["duration_s", "sent", "direct_lost", "recovered_1rtt", "recovered_any"]
               + COUNTER_COLS + ["dc1_egress_bytes", "dc2_egress_recovery_bytes",
                                 "dc2_egress_ctrl_bytes", "dup_bytes", "data_wire_bytes"])


@settings(max_examples=50, derandomize=True, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.tuples(*(random_runs(seed) for seed in range(1, n + 1)))))
def test_pooled_row_sums_the_seed_rows(runs):
    pooled = summary_row(pool_runs(list(runs)))
    rows = [summary_row(m) for m in runs]
    assert pooled["seed"] == "all"
    assert pooled["flows"] == max(r["flows"] for r in rows)  # ids 0..n-1 in each seed
    for col in SUMMED_COLS:
        assert pooled[col] == sum(r[col] for r in rows), col


@settings(max_examples=50, derandomize=True, deadline=None)
@given(random_runs(7))
def test_pooling_one_run_changes_only_the_seed(m):
    pooled = pool_runs([m])
    assert summary_row(pooled) == {**summary_row(m), "seed": "all"}
    assert fec_rows(pooled) == [{**r, "seed": "all"} for r in fec_rows(m)]
    assert cost_rows(pooled) == [{**r, "seed": "all"} for r in cost_rows(m)]


def read_rows(path):
    with path.open() as f:
        return list(csv.DictReader(f))


def test_summary_csv_shape_and_determinism(tmp_path):
    runs = two_runs()
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_summary_csv(a, runs, pool_runs(runs))
    write_summary_csv(b, runs, pool_runs(runs))
    assert a.read_bytes() == b.read_bytes()
    rows = read_rows(a)
    assert [r["seed"] for r in rows] == ["1", "2", "all"]
    assert all(r["schema"] == "caspr.summary/1" for r in rows)
    assert rows[2]["sent"] == "6"
    assert rows[2]["recovery_rate"] == "1.000000"


def test_episodes_csv_rows(tmp_path):
    path = tmp_path / "e.csv"
    write_episodes_csv(path, two_runs())
    rows = read_rows(path)
    assert [(r["seed"], r["start_seq"], r["klass"]) for r in rows] == [
        ("1", "1", "RANDOM"), ("2", "2", "RANDOM")]


def test_fec_csv_carries_system_rate_and_outage_column(tmp_path):
    path = tmp_path / "f.csv"
    runs = two_runs()
    write_fec_csv(path, runs, pool_runs(runs))
    rows = read_rows(path)
    # per-seed rows for each level, then pooled rows labeled "all"
    assert len(rows) == 3 * 3
    pooled = [r for r in rows if r["seed"] == "all"]
    assert [r["overhead_pct"] for r in pooled] == ["20", "40", "100"]
    assert all(r["caspr_rate"] == "1.000000" for r in pooled)
    # no outage windows: both in-outage columns stay empty
    assert all(r["caspr_rate_in_outage"] == "" for r in rows)
    assert all(r["fec_rate_in_outage"] == "" for r in rows)


def test_analyze_run_in_outage_system_rate():
    log = make_log(lost={1})
    log.record_recovery(0, 1, 100_000)   # 0.4 RTT late
    m = analyze_run(scenario_of(outages=[window(10_000, 20_000)]), 1, log,
                    link_table([3]))
    assert (m.in_outage_lost, m.in_outage_recovered_1rtt) == (1, 1)
    assert m.in_outage_rate == 1.0
    outside = analyze_run(scenario_of(outages=[window(500_000, 600_000)]), 1, log,
                          link_table([3]))
    assert outside.in_outage_lost == 0
    assert outside.in_outage_rate is None


def test_cost_csv_arithmetic(tmp_path):
    path = tmp_path / "c.csv"
    runs = two_runs()
    write_cost_csv(path, runs, pool_runs(runs))
    rows = {(r["seed"], r["component"]): r
            for r in read_rows(path)}
    total = rows[("all", "caspr_total")]
    # 2 x (700 + 100 + 10) bytes against 2 x data_wire = 2 x 2 x 396
    assert total["bytes"] == "1620"
    assert float(total["ratio_to_full_overlay"]) == pytest.approx(
        1620 / (2 * 2 * 396), abs=1e-6)
    assert rows[("all", "overlay_interdc_baseline")]["bytes"] == "792"
    assert rows[("all", "sender_duplication")]["bytes"] == "2000"


def test_egress_dollars():
    assert egress_dollars(1_000_000_000) == PRICE_PER_GB == 0.087
    assert egress_dollars(0) == 0.0
