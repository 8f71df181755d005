"""Acceptance gate: one test per headline claim, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail
line per criterion.  Scenario runs are cached for the session, so the
whole gate runs each bundled scenario once at its configured seeds;
the determinism criterion checks those runs against pinned digests.
"""

import hashlib
import itertools
import json
import pathlib
import tempfile
import time

import pytest

import oracle_gf
from caspr import runner, scenario, wire
from caspr.codec import InsufficientSymbols, decode_batch, encode_batch
from caspr.metrics import pool_runs

ARTIFACTS = ("summary.csv", "episodes.csv", "fec_whatif.csv", "cost.csv")
DIGESTS = pathlib.Path(__file__).parent / "data" / "artifact_digests.json"


class Lab:
    """Runs bundled scenarios at most once per (name, overrides, seeds)."""

    def __init__(self, root):
        self.root = root
        self.cache = {}

    def run(self, name, overrides=(), tag=None, seeds=None):
        key = (name, tuple(overrides), tuple(seeds) if seeds else None)
        if key not in self.cache:
            cfg = scenario.load(scenario.bundled_path(name), list(overrides))
            out = self.root / (tag or name)
            t0 = time.monotonic()
            runs = runner.run_scenario(cfg, str(out), seeds=seeds)
            wall = time.monotonic() - t0
            self.cache[key] = (out, runs, pool_runs(runs), wall)
        return self.cache[key]


@pytest.fixture(scope="session")
def lab(tmp_path_factory):
    return Lab(tmp_path_factory.mktemp("acceptance"))


# -- 1: codec against the independent reference -------------------------------


def test_criterion_01_codec_matches_oracle_exhaustively():
    t0 = time.monotonic()
    checked = 0
    for k, p in itertools.product(range(1, 7), (1, 2)):
        payloads = [bytes((i * 37 + j * 11 + k + p) % 256 for j in range(19))
                    for i in range(k)]
        sources = [wire.DataPacket(i, 100 + i, 0, payloads[i]) for i in range(k)]
        parity = encode_batch(7, sources, p, True, 0)
        assert [ps.payload for ps in parity] == oracle_gf.encode(payloads, p)
        for lost_parity in itertools.chain.from_iterable(
                itertools.combinations(range(p), n) for n in range(p)):
            avail = [ps for ps in parity if ps.parity_index not in lost_parity]
            max_data_loss = len(avail)
            for n_lost in range(1, max_data_loss + 1):
                for lost in itertools.combinations(range(k), n_lost):
                    present = {(s.flow_id, s.seq): s.payload
                               for i, s in enumerate(sources) if i not in lost}
                    got = decode_batch(present, avail)
                    assert list(got) == [(i, 100 + i) for i in lost]
                    want = oracle_gf.reconstruct(
                        k, p,
                        {i: payloads[i] for i in range(k) if i not in lost},
                        {ps.parity_index: ps.payload for ps in avail})
                    assert list(got.values()) == [want[i] for i in lost]
                    checked += 1
            # one more loss than surviving parity must be refused
            if max_data_loss < k:
                overload = list(range(max_data_loss + 1))
                keep = {(s.flow_id, s.seq): s.payload
                        for i, s in enumerate(sources) if i not in overload}
                with pytest.raises(InsufficientSymbols):
                    decode_batch(keep, avail)
    wall = time.monotonic() - t0
    assert wall < 5.0, f"oracle sweep took {wall:.1f}s"
    print(f"criterion 1: {checked} erasure patterns match the reference "
          f"in {wall:.2f}s")


# -- 2: recovery under load ----------------------------------------------------


def test_criterion_02_twenty_flow_recovery_rate(lab):
    _, runs, pooled, wall = lab.run("coding_overhead_20flows")
    assert len(runs) >= 10
    assert wall < 60.0, f"scenario took {wall:.1f}s"
    assert pooled.recovery_rate >= 0.92, pooled.recovery_rate
    print(f"criterion 2: {len(runs)} seeds pooled recovery "
          f"{pooled.recovery_rate * 100:.1f}% (>= 92) in {wall:.1f}s")


# -- 3: recovery latency under the stated geometry ------------------------------


def test_criterion_03_wide_area_latency(lab):
    cfg = scenario.load(scenario.bundled_path("wide_area_cbr"))
    direct = cfg.topology.direct.delay_ms
    recovery = cfg.topology.recovery.delay_ms
    inter_dc = cfg.topology.inter_dc.delay_ms
    assert 2 * recovery <= 0.2 * (2 * direct)       # receiver<->DC2 RTT cap
    assert inter_dc <= 0.6 * direct                 # DC1->DC2 one-way cap
    _, _, pooled, _ = lab.run("wide_area_cbr")
    frac = pooled.within_half_rtt_frac
    assert frac is not None and frac >= 0.90, frac
    print(f"criterion 3: {frac * 100:.1f}% of recoveries within 0.5 RTT "
          f"(>= 90), recovery {pooled.recovery_rate * 100:.1f}%")


# -- 4: outage vs on-path FEC ----------------------------------------------------


def test_criterion_04_outage_beats_fec_whatif(lab):
    _, _, pooled, _ = lab.run("outage_vs_fec")
    fec100 = pooled.fec[100]
    assert pooled.recovery_rate > fec100.rate()     # strict
    assert fec100.lost_in_outage > 0
    assert fec100.rate_in_outage() == 0.0           # exactly zero
    print(f"criterion 4: system {pooled.recovery_rate * 100:.1f}% vs "
          f"100%-overhead FEC {fec100.rate() * 100:.1f}%; in-outage FEC 0.0%, "
          f"system {pooled.in_outage_rate * 100:.1f}%")


# -- 5: second parity symbol earns its keep --------------------------------------


def test_criterion_05_straggler_two_parity_margin(lab):
    _, _, two, _ = lab.run("straggler_ab")
    _, _, one, _ = lab.run("straggler_ab",
                           overrides=("coding.parity_cross=1",),
                           tag="straggler_ab_p1")
    gain = (two.recovery_rate - one.recovery_rate) * 100
    assert gain >= 10.0, gain
    print(f"criterion 5: 2-parity {two.recovery_rate * 100:.1f}% vs 1-parity "
          f"{one.recovery_rate * 100:.1f}%, margin {gain:.1f} points (>= 10)")


# -- 6: egress economics -----------------------------------------------------------


def test_criterion_06_skype_analog_cost(lab):
    _, _, pooled, _ = lab.run("skype_analog")
    interdc_ratio = pooled.dc1_egress_bytes / pooled.data_wire_bytes
    assert abs(interdc_ratio - 1 / 16) <= 0.02, interdc_ratio
    total = (pooled.dc1_egress_bytes + pooled.dc2_egress_recovery_bytes
             + pooled.dc2_egress_ctrl_bytes)
    total_ratio = total / (2 * pooled.data_wire_bytes)
    assert total_ratio <= 0.20, total_ratio
    print(f"criterion 6: inter-DC {interdc_ratio * 100:.2f}% of stream bytes "
          f"(1/16 +/- 2 points), total {total_ratio * 100:.2f}% of full "
          f"duplication (<= 20%)")


# -- 7: two-state detector economy ---------------------------------------------------


def test_criterion_07_nack_economy(lab):
    _, _, two_state, _ = lab.run("short_flow_nack_economy")
    _, _, fixed, _ = lab.run("short_flow_nack_economy",
                             overrides=("detector.kind=fixed_small",),
                             tag="short_flow_fixed")
    n_two = two_state.counters["nacks_sent"]
    n_fixed = fixed.counters["nacks_sent"]
    assert n_two * 2 <= n_fixed, (n_two, n_fixed)
    print(f"criterion 7: two-state {n_two} NACKs vs fixed-small {n_fixed}, "
          f"factor {n_fixed / n_two:.2f}x (>= 2x); recovery "
          f"{two_state.recovery_rate * 100:.1f}% vs "
          f"{fixed.recovery_rate * 100:.1f}%")


# -- 8: egress strictly on demand ----------------------------------------------------


LOSSLESS_OVERRIDES = ("topology.direct.loss={kind: bernoulli, p: 0}",
                      "outages=[]")


def test_criterion_08_lossless_runs_move_no_recovery_bytes():
    for name in scenario.bundled_names():
        cfg = scenario.load(scenario.bundled_path(name),
                            list(LOSSLESS_OVERRIDES))
        m = runner.run_seed(cfg, cfg.seeds[0])
        assert m.lost == 0, name
        assert m.dc2_egress_recovery_bytes == 0, name
    print(f"criterion 8: {len(scenario.bundled_names())} lossless variants "
          f"sent zero DC2 recovery bytes")


# -- 9: bit-for-bit reproducibility ---------------------------------------------------


def artifact_digests(out_dir):
    return {a: hashlib.sha256((out_dir / a).read_bytes()).hexdigest()
            for a in ARTIFACTS}


def test_criterion_09_reruns_are_byte_identical(lab):
    """Every bundled scenario, run at its configured seeds, writes CSVs
    whose SHA-256 matches ``tests/data/artifact_digests.json``.

    The pin holds across processes, hash seeds and commits.  After a
    deliberate change of behaviour, regenerate it from the repo root with
    ``PYTHONPATH=src python tests/test_acceptance.py`` and say in the
    change which artifacts moved and why.
    """
    pinned = json.loads(DIGESTS.read_text())
    assert sorted(pinned) == scenario.bundled_names()
    for name in scenario.bundled_names():
        out, _, _, _ = lab.run(name)
        assert artifact_digests(out) == pinned[name], \
            f"{name}: artifacts differ from the pinned digests"
    print(f"criterion 9: {len(pinned)} scenarios byte-identical to the "
          f"pinned digests across {len(ARTIFACTS)} artifact kinds")


if __name__ == "__main__":
    # rewrite the criterion 9 pin from fresh runs of every bundled scenario
    with tempfile.TemporaryDirectory() as tmp:
        lab = Lab(pathlib.Path(tmp))
        pinned = {name: artifact_digests(lab.run(name)[0])
                  for name in scenario.bundled_names()}
    DIGESTS.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
