"""Scenario schema strictness, defaults, overrides, bundled files."""

import dataclasses
import re

import pytest
import yaml

from caspr.scenario import (
    ScenarioError,
    apply_overrides,
    bundled_names,
    bundled_path,
    load,
    validate,
)


def minimal():
    return {
        "name": "tiny",
        "duration_s": 4.0,
        "cooldown_s": 1.0,
        "seeds": [1],
        "topology": {
            "direct": {"delay_ms": 50.0},
            "access": {"delay_ms": 5.0},
            "inter_dc": {"delay_ms": 20.0},
            "recovery": {"delay_ms": 8.0},
        },
        "flows": {"count": 2, "packet_size": 64, "interval_ms": 10.0,
                  "on_s": 2.0},
        "coding": {"k_max": 2, "parity_cross": 1},
    }


def test_minimal_scenario_gets_defaults():
    cfg = validate(minimal())
    assert cfg.coding.in_block == 5
    assert cfg.coding.parity_in == 1
    assert cfg.coding.cross_flush_ms == 30.0
    assert cfg.recovery.deadline_rtt == 1.0
    assert cfg.detector.kind == "two_state"
    assert cfg.cost.price_per_gb == 0.087
    assert cfg.flows.duplication == "full"
    assert cfg.outages == ()
    assert cfg.topology.direct.jitter_ms == 0.0


def test_unknown_key_is_named_in_the_error():
    doc = minimal()
    doc["coding"]["partiy_cross"] = 2
    with pytest.raises(ScenarioError, match="partiy_cross"):
        validate(doc)


def test_missing_required_key():
    doc = minimal()
    del doc["topology"]["inter_dc"]
    with pytest.raises(ScenarioError, match="inter_dc"):
        validate(doc)


def test_all_problems_reported_at_once():
    doc = minimal()
    doc["duration_s"] = -1
    doc["coding"]["parity_cross"] = 9
    try:
        validate(doc)
    except ScenarioError as e:
        msg = str(e)
        assert "duration_s" in msg and "parity_cross" in msg
    else:
        pytest.fail("expected ScenarioError")


def test_loss_model_shape_is_checked():
    doc = minimal()
    doc["topology"]["direct"]["loss"] = {"kind": "bernoulli"}  # p missing
    with pytest.raises(ScenarioError, match="direct.loss"):
        validate(doc)


def test_semantic_outage_flow_range():
    doc = minimal()
    doc["outages"] = [{"flow": 5, "start_s": 1.0, "end_s": 2.0}]
    with pytest.raises(ScenarioError, match="out of range"):
        validate(doc)


def test_semantic_outage_ordering():
    doc = minimal()
    doc["outages"] = [{"flow": 0, "start_s": 2.0, "end_s": 2.0}]
    with pytest.raises(ScenarioError, match="empty or reversed"):
        validate(doc)


def test_semantic_cooldown_vs_duration():
    doc = minimal()
    doc["cooldown_s"] = 4.0
    with pytest.raises(ScenarioError, match="cooldown"):
        validate(doc)


def test_semantic_in_stream_parity():
    doc = minimal()
    doc["coding"]["in_block"] = 5
    doc["coding"]["parity_in"] = 0
    with pytest.raises(ScenarioError, match="parity_in"):
        validate(doc)


def test_semantic_straggler_range():
    doc = minimal()
    doc["straggler"] = {"receiver": 2, "delay_ms": 100.0}
    with pytest.raises(ScenarioError, match="straggler"):
        validate(doc)


def test_semantic_jitter_bound():
    doc = minimal()
    doc["topology"]["direct"]["jitter_ms"] = 60.0
    with pytest.raises(ScenarioError, match="jitter exceeds delay"):
        validate(doc)


# -- one rejecting document per schema rule ------------------------------------

DROP = object()
OUTAGE = {"flow": 0, "start_s": 1.0, "end_s": 2.0}
STRAGGLER = {"receiver": 0, "delay_ms": 100.0}
GE = {"kind": "gilbert_elliott", "p_good_bad": 0.01, "p_bad_good": 0.5,
      "loss_good": 0.0, "loss_bad": 0.3}
BURST = {"kind": "google_burst"}
LOSS = "topology.direct.loss"


def without(mapping, key):
    return {k: v for k, v in mapping.items() if k != key}


def edited(path, value):
    """minimal() with the value at a dotted path replaced, or deleted by DROP."""
    doc = minimal()
    *parents, last = path.split(".")
    node = doc
    for key in parents:
        node = node.setdefault(key, {})
    if value is DROP:
        del node[last]
    else:
        node[last] = value
    return doc


# (dotted path, value, text the error must contain)
REJECTED = [
    # root: required keys, unknown key, types, bounds
    *[(key, DROP, key) for key in
      ("name", "duration_s", "seeds", "topology", "flows", "coding")],
    ("nmae", "tiny", "nmae"),
    ("name", "Tiny", "name"),
    ("name", 7, "name"),
    ("description", 7, "description"),
    ("duration_s", 0, "duration_s"),
    ("duration_s", "4", "duration_s"),
    ("duration_s", True, "duration_s"),
    ("cooldown_s", -0.5, "cooldown_s"),
    ("seeds", [], "seeds"),
    ("seeds", 1, "seeds"),
    ("seeds", [-1], "seeds.0"),
    ("seeds", [True], "seeds.0"),
    # topology and its links
    *[(f"topology.{key}", DROP, key)
      for key in ("direct", "access", "inter_dc", "recovery")],
    ("topology.backbone", {"delay_ms": 1.0}, "backbone"),
    ("topology.direct", 5, "topology.direct"),
    ("topology.access.delay_ms", DROP, "delay_ms"),
    ("topology.access.delay_ms", 0, "topology.access.delay_ms"),
    ("topology.access.delay_ms", True, "topology.access.delay_ms"),
    ("topology.access.jitter_ms", -1.0, "topology.access.jitter_ms"),
    ("topology.access.bandwidth_mbps", 0, "topology.access.bandwidth_mbps"),
    ("topology.access.mtu", 1500, "mtu"),
    # loss models: shape, kind, required keys, bounds, unknown keys
    (LOSS, "bernoulli", LOSS),
    (LOSS, {"p": 0.1}, LOSS),
    (LOSS, {"kind": "uniform", "p": 0.1}, LOSS),
    (LOSS, {"kind": "bernoulli"}, LOSS),
    (LOSS, {"kind": "bernoulli", "p": -0.1}, LOSS),
    (LOSS, {"kind": "bernoulli", "p": 1.5}, LOSS),
    (LOSS, {"kind": "bernoulli", "p": True}, LOSS),
    (LOSS, {"kind": "bernoulli", "p": 0.1, "q": 0.1}, LOSS),
    *[(LOSS, without(GE, key), LOSS) for key in GE if key != "kind"],
    *[(LOSS, {**GE, key: value}, LOSS)
      for key in GE if key != "kind" for value in (-0.1, 1.5)],
    (LOSS, {**GE, "p": 0.1}, LOSS),
    *[(LOSS, {**BURST, key: value}, LOSS)
      for key in ("p_first", "p_cont") for value in (-0.1, 1.5)],
    (LOSS, {**BURST, "p": 0.1}, LOSS),
    # outages
    ("outages", OUTAGE, "outages"),
    *[("outages", [without(OUTAGE, key)], key) for key in OUTAGE],
    ("outages", [{**OUTAGE, "flow": -1}], "outages.0.flow"),
    ("outages", [{**OUTAGE, "flow": 0.5}], "outages.0.flow"),
    ("outages", [{**OUTAGE, "start_s": -0.5}], "outages.0.start_s"),
    ("outages", [{**OUTAGE, "end_s": 0}], "outages.0.end_s"),
    ("outages", [{**OUTAGE, "why": "x"}], "why"),
    # flows
    *[(f"flows.{key}", DROP, key)
      for key in ("count", "packet_size", "interval_ms", "on_s")],
    ("flows.count", 0, "flows.count"),
    ("flows.packet_size", -1, "flows.packet_size"),
    ("flows.packet_size", 65504, "flows.packet_size"),
    ("flows.packet_size", True, "flows.packet_size"),
    ("flows.interval_ms", 0, "flows.interval_ms"),
    ("flows.on_s", 0, "flows.on_s"),
    ("flows.off_mean_s", -1.0, "flows.off_mean_s"),
    ("flows.stagger_ms", -1.0, "flows.stagger_ms"),
    ("flows.duplication", "partial", "flows.duplication"),
    ("flows.selective_first_n", 0, "flows.selective_first_n"),
    ("flows.rate", 1, "rate"),
    # coding
    ("coding.k_max", DROP, "k_max"),
    ("coding.parity_cross", DROP, "parity_cross"),
    ("coding.k_max", 1, "coding.k_max"),
    ("coding.k_max", 252, "coding.k_max"),
    ("coding.parity_cross", 0, "coding.parity_cross"),
    ("coding.parity_cross", 5, "coding.parity_cross"),
    ("coding.parity_in", -1, "coding.parity_in"),
    ("coding.parity_in", 5, "coding.parity_in"),
    ("coding.in_block", -1, "coding.in_block"),
    ("coding.in_block", 65, "coding.in_block"),
    ("coding.cross_flush_ms", 0, "coding.cross_flush_ms"),
    ("coding.in_flush_ms", 0, "coding.in_flush_ms"),
    ("coding.rate", 1, "rate"),
    # recovery
    ("recovery", 3, "recovery"),
    ("recovery.deadline_rtt", 0, "recovery.deadline_rtt"),
    ("recovery.store_ttl_rtt", 0, "recovery.store_ttl_rtt"),
    ("recovery.proactive_nacks", 0, "recovery.proactive_nacks"),
    ("recovery.cache_packets", 0, "recovery.cache_packets"),
    ("recovery.cache_ttl_rtt", 0, "recovery.cache_ttl_rtt"),
    ("recovery.retries", 1, "retries"),
    # detector
    ("detector.kind", "three_state", "detector.kind"),
    ("detector.small_ms", 0, "detector.small_ms"),
    ("detector.long_rtt", 0, "detector.long_rtt"),
    ("detector.burst_factor", 0, "detector.burst_factor"),
    ("detector.giveup_nacks", 0, "detector.giveup_nacks"),
    ("detector.window", 15, "window"),
    # straggler
    *[("straggler", without(STRAGGLER, key), key) for key in STRAGGLER],
    ("straggler", {**STRAGGLER, "receiver": -1}, "straggler.receiver"),
    ("straggler", {**STRAGGLER, "delay_ms": 0}, "straggler.delay_ms"),
    ("straggler", {**STRAGGLER, "jitter_ms": 1.0}, "jitter_ms"),
    # cost
    ("cost.price_per_gb", -0.01, "cost.price_per_gb"),
    ("cost.currency", "usd", "currency"),
    # appended, so the ids of the cases above stay as they were
    ("seeds", [4, 1, 4], "seeds: 4 repeated"),
]


@pytest.mark.parametrize("path,value,expected", REJECTED)
def test_schema_rule_rejects(path, value, expected):
    with pytest.raises(ScenarioError, match=re.escape(expected)):
        validate(edited(path, value))


@pytest.mark.parametrize("override", ["flows.count=2.0", "coding.k_max=4.0",
                                      "recovery.cache_packets=64.0"])
def test_integer_fields_reject_floats(override):
    with pytest.raises(ScenarioError, match="not an integer"):
        validate(apply_overrides(minimal(), [override]))


@pytest.mark.parametrize("overrides", [
    ["coding.k_max=40", "coding.parity_cross=4"],
    ["coding.in_block=64", "coding.parity_in=4"],
])
def test_codec_envelope_checked_at_validation(overrides):
    with pytest.raises(ScenarioError, match="num_parity 4"):
        validate(apply_overrides(minimal(), overrides))


def test_numbers_keep_the_parsed_value():
    cfg = validate(apply_overrides(minimal(), ["duration_s=12",
                                               "topology.direct.delay_ms=60"]))
    assert cfg.duration_s == 12 and isinstance(cfg.duration_s, int)
    assert cfg.topology.direct.delay_us == 60_000
    assert cfg.rtt_us == 120_000


# -- overrides ----------------------------------------------------------------


def test_override_scalar_and_yaml_typing():
    doc = minimal()
    out = apply_overrides(doc, ["coding.parity_cross=2",
                                "detector.kind=fixed_small",
                                "duration_s=8.5"])
    assert out["coding"]["parity_cross"] == 2
    assert out["detector"]["kind"] == "fixed_small"
    assert out["duration_s"] == 8.5
    assert doc["coding"]["parity_cross"] == 1  # input untouched


def test_override_creates_missing_sections():
    out = apply_overrides(minimal(), ["detector.small_ms=10"])
    assert out["detector"]["small_ms"] == 10


def test_override_structured_value():
    out = apply_overrides(minimal(),
                          ["topology.direct.loss={kind: bernoulli, p: 0.05}"])
    assert out["topology"]["direct"]["loss"] == {"kind": "bernoulli", "p": 0.05}
    assert validate(out).topology.direct.loss.p == 0.05


def test_override_list_index():
    doc = minimal()
    doc["outages"] = [{"flow": 0, "start_s": 1.0, "end_s": 2.0}]
    out = apply_overrides(doc, ["outages.0.end_s=1.5"])
    assert out["outages"][0]["end_s"] == 1.5


def test_override_error_forms():
    with pytest.raises(ScenarioError, match="path=value"):
        apply_overrides(minimal(), ["nonsense"])
    with pytest.raises(ScenarioError, match="empty path segment"):
        apply_overrides(minimal(), ["coding..k=1"])
    with pytest.raises(ScenarioError, match="scalar"):
        apply_overrides(minimal(), ["duration_s.deep=1"])


def test_override_that_breaks_schema_fails_validation():
    with pytest.raises(ScenarioError, match="parity_cross"):
        validate(apply_overrides(minimal(), ["coding.parity_cross=9"]))


# -- files --------------------------------------------------------------------


def test_load_rejects_non_mapping(tmp_path):
    p = tmp_path / "x.yaml"
    p.write_text("- just\n- a list\n")
    with pytest.raises(ScenarioError, match="mapping"):
        load(str(p))


def test_load_reports_yaml_syntax(tmp_path):
    p = tmp_path / "x.yaml"
    p.write_text("name: [unclosed\n")
    with pytest.raises(ScenarioError, match="YAML"):
        load(str(p))


def test_every_bundled_scenario_validates():
    names = bundled_names()
    assert set(names) >= {
        "wide_area_cbr", "coding_overhead_20flows", "outage_vs_fec",
        "straggler_ab", "skype_analog", "short_flow_nack_economy",
        "selective_duplication"}
    for name in names:
        cfg = load(bundled_path(name))
        assert cfg.name == name


def test_bundled_path_misses_return_none():
    assert bundled_path("no_such_scenario") is None


def test_bundled_files_round_trip_defaults():
    cfg = load(bundled_path("straggler_ab"))
    with open(bundled_path("straggler_ab")) as f:
        raw = yaml.safe_load(f)
    # defaults fill only what the file leaves unsaid
    assert dataclasses.asdict(cfg.straggler) == raw["straggler"]
    assert cfg.recovery.store_ttl_rtt == 4.0
