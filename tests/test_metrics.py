"""Episode taxonomy, FEC counterfactual, run metrics, CSV artifacts.

The fec_whatif cases are hand-computed from the rule set: blocks of
five, n parity fates read off the next block's first n packets, a
truncated next block counts as parity that never existed.
"""

import csv

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caspr.metrics import (
    COUNTER_COLS,
    Episode,
    FecLevel,
    MULTI,
    OUTAGE,
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

# -- episodes -----------------------------------------------------------------


def test_classify_episodes_basic_runs():
    seqs = list(range(10))
    assert classify_episodes(seqs, set(), 0) == []
    assert classify_episodes(seqs, {3}, 0) == [Episode(0, 3, 1)]
    assert classify_episodes(seqs, {3, 4, 7}, 0) == [
        Episode(0, 3, 2), Episode(0, 7, 1)]
    # a run touching the end of the trace still closes
    assert classify_episodes(seqs, {8, 9}, 0) == [Episode(0, 8, 2)]


def test_classify_episodes_follows_send_order_not_seq_arithmetic():
    # bursty flows skip nothing in send order even when seqs jump
    seqs = [0, 1, 7, 8, 9]
    assert classify_episodes(seqs, {1, 7}, 0) == [Episode(0, 1, 2)]


def test_episode_class_boundaries():
    assert Episode(0, 0, 1).klass == RANDOM
    assert Episode(0, 0, 2).klass == MULTI
    assert Episode(0, 0, 14).klass == MULTI
    assert Episode(0, 0, 15).klass == OUTAGE


# -- FEC what-if --------------------------------------------------------------


def ts(seqs):
    return {s: s * 10_000 for s in seqs}


def test_fec_single_loss_recovered_at_all_levels():
    seqs = list(range(15))
    levels = fec_whatif(seqs, ts(seqs), {2}, [])
    for pct in (20, 40, 100):
        assert levels[pct].lost == 1
        assert levels[pct].recovered == 1
        assert levels[pct].rate() == 1.0


def test_fec_double_loss_needs_two_parity():
    seqs = list(range(15))
    levels = fec_whatif(seqs, ts(seqs), {2, 3}, [])
    assert (levels[20].lost, levels[20].recovered) == (2, 0)
    assert (levels[40].lost, levels[40].recovered) == (2, 2)
    assert (levels[100].lost, levels[100].recovered) == (2, 2)


def test_fec_parity_fate_is_next_blocks_loss_pattern():
    # block 0 loses seq 2; its only 20% parity rides as seq 5, also lost
    seqs = list(range(15))
    levels = fec_whatif(seqs, ts(seqs), {2, 5}, [])
    assert (levels[20].lost, levels[20].recovered) == (2, 1)  # block 1 only
    assert (levels[40].lost, levels[40].recovered) == (2, 2)


def test_fec_truncated_next_block_counts_as_lost_parity():
    seqs = list(range(7))  # last block is 5,6 and has no next block
    levels = fec_whatif(seqs, ts(seqs), {6}, [])
    for pct in (20, 40, 100):
        assert (levels[pct].lost, levels[pct].recovered) == (1, 0)


def test_fec_partial_truncation_hits_high_overhead_hardest():
    # 12 packets: block 1 is full but only two of its parity fates exist.
    # The nominal 100% level needs five, so truncation sinks it while the
    # 20% level sails through: more parity, more stream-end exposure.
    seqs = list(range(12))
    levels = fec_whatif(seqs, ts(seqs), {7}, [])
    assert (levels[20].lost, levels[20].recovered) == (1, 1)
    assert (levels[100].lost, levels[100].recovered) == (1, 0)


def test_fec_outage_window_marks_blocks_by_send_time():
    seqs = list(range(15))
    levels = fec_whatif(seqs, ts(seqs), {2, 7}, [(20_000, 40_001)])
    assert levels[20].lost == 2
    assert levels[20].lost_in_outage == 1          # only block 0 overlaps
    assert levels[20].recovered_in_outage == 1
    assert levels[20].rate_in_outage() == 1.0
    clean = fec_whatif(seqs, ts(seqs), {7}, [(0, 1)])
    assert clean[20].rate_in_outage() is None      # no losses in outage


def test_fec_level_rate_with_no_losses():
    assert FecLevel(20).rate() == 1.0


# -- analyze_run --------------------------------------------------------------


def make_log():
    log = RunLog()
    log.register_flow(0, 100)
    for seq in range(3):
        log.record_send(0, seq, seq * 10_000)
    return log


def test_analyze_run_recovery_ratio_join():
    log = make_log()
    log.record_delivery(0, 0, 50_000, False)
    log.record_delivery(0, 2, 70_000, False)
    log.record_delivery(0, 1, 130_000, True)
    log.record_delivery(0, 1, 900_000, True)   # late duplicate is ignored
    log.record_delivery(0, 0, 60_000, True)    # recovered copy of a non-loss
    m = analyze_run("t", 1, 1.0, 100_000, log, {0: {1}}, 50_000,
                    {}, 700, 100, 10, 1000)
    assert (m.sent, m.lost, m.recovered_1rtt, m.recovered_any) == (3, 1, 1, 1)
    # expected arrival 60_000, recovered at 130_000: 0.7 RTT late
    assert m.ratios == [0.7]
    assert m.recovery_rate == 1.0
    assert m.within_half_rtt_frac == 0.0
    assert m.episodes == [Episode(0, 1, 1)]
    assert m.data_wire_bytes == 3 * 132
    assert m.counters == log.counters


def test_analyze_run_lossless():
    log = make_log()
    for seq in range(3):
        log.record_delivery(0, seq, seq * 10_000 + 50_000, False)
    m = analyze_run("t", 1, 1.0, 100_000, log, {}, 50_000, {}, 0, 0, 0, 0)
    assert m.lost == 0
    assert m.recovery_rate == 1.0
    assert m.episodes == []
    assert m.within_half_rtt_frac is None


def test_analyze_run_unrecovered_loss():
    log = make_log()
    log.record_delivery(0, 0, 50_000, False)
    log.record_delivery(0, 2, 70_000, False)
    m = analyze_run("t", 1, 1.0, 100_000, log, {0: {1}}, 50_000,
                    {}, 0, 0, 0, 0)
    assert (m.lost, m.recovered_1rtt, m.recovered_any) == (1, 0, 0)
    assert m.recovery_rate == 0.0


# -- pooling and artifacts ------------------------------------------------------


def two_runs():
    runs = []
    for seed, loss_seq in ((1, 1), (2, 2)):
        log = make_log()
        for seq in range(3):
            if seq != loss_seq:
                log.record_delivery(0, seq, seq * 10_000 + 50_000, False)
        log.record_delivery(0, loss_seq, loss_seq * 10_000 + 100_000, True)
        log.bump("nacks_sent")
        runs.append(analyze_run("t", seed, 1.0, 100_000, log,
                                {0: {loss_seq}}, 50_000, {},
                                700, 100, 10, 1000))
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
    log = RunLog()
    losses, outages = {}, {}
    for flow_id in range(draw(st.integers(1, 3))):
        log.register_flow(flow_id, draw(st.integers(0, 64)))
        ts = 0
        losses[flow_id] = set()
        for seq in range(draw(st.integers(0, 25))):
            ts += draw(st.integers(1, 20_000))
            log.record_send(flow_id, seq, ts)
            if not draw(st.booleans()):
                log.record_delivery(flow_id, seq, ts + 50_000, False)
                continue
            losses[flow_id].add(seq)
            late = draw(st.none() | st.integers(-10_000, 300_000))
            if late is not None:
                log.record_delivery(flow_id, seq, ts + 50_000 + late, True)
        if draw(st.booleans()):
            start = draw(st.integers(0, 300_000))
            outages[flow_id] = [(start, start + draw(st.integers(1, 200_000)))]
    for name in draw(st.lists(st.sampled_from(COUNTER_COLS), max_size=8)):
        log.bump(name)
    n_bytes = st.integers(0, 10**6)
    return analyze_run("p", seed, draw(st.sampled_from([1, 2.5])), 100_000, log,
                       losses, 50_000, outages, draw(n_bytes), draw(n_bytes),
                       draw(n_bytes), draw(n_bytes))


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
    assert cost_rows(pooled, 0.087) == [{**r, "seed": "all"} for r in cost_rows(m, 0.087)]


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
    log = make_log()
    log.record_delivery(0, 0, 50_000, False)
    log.record_delivery(0, 2, 70_000, False)
    log.record_delivery(0, 1, 100_000, True)   # 0.4 RTT late
    m = analyze_run("t", 1, 1.0, 100_000, log, {0: {1}}, 50_000,
                    {0: [(10_000, 20_000)]}, 0, 0, 0, 0)
    assert (m.in_outage_lost, m.in_outage_recovered_1rtt) == (1, 1)
    assert m.in_outage_rate == 1.0
    outside = analyze_run("t", 1, 1.0, 100_000, log, {0: {1}}, 50_000,
                          {0: [(500_000, 600_000)]}, 0, 0, 0, 0)
    assert outside.in_outage_lost == 0
    assert outside.in_outage_rate is None


def test_cost_csv_arithmetic(tmp_path):
    path = tmp_path / "c.csv"
    runs = two_runs()
    write_cost_csv(path, runs, pool_runs(runs), price_per_gb=0.087)
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
    assert egress_dollars(1_000_000_000, 0.087) == 0.087
    assert egress_dollars(0, 0.087) == 0.0
