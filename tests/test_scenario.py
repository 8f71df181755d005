"""Scenario schema strictness, defaults, overrides, bundled files."""

import pathlib
import pickle
import re

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from caspr.egress import EgressRecovery
from caspr.endpoint import Receiver
from caspr.metrics import RunLog
from caspr.scenario import (
    CROSS_FLUSH_US,
    _YAMLParser,
    Flows,
    Link,
    ScenarioError,
    Straggler,
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
    assert cfg.detector.kind == "two_state"
    assert cfg.flows.duplication == "full"
    assert cfg.outages == ()
    assert cfg.topology.direct.jitter_ms == 0.0
    # the cloud path's fixed timings, in direct-path RTTs
    assert cfg.deadline_us == cfg.rtt_us == 100_000
    assert cfg.horizon_us == 4 * cfg.rtt_us


def test_nodes_carry_the_timings_the_scenario_derives():
    cfg = validate(apply_overrides(minimal(), ["topology.direct.jitter_ms=4"]))
    assert cfg.reorder_grace_us == 2 * cfg.topology.direct.jitter_us == 8_000
    assert cfg.boundary_wait_us == CROSS_FLUSH_US + cfg.topology.inter_dc.delay_us == 50_000
    log = RunLog(cfg.flows.count)
    recv = Receiver(0, cfg, log)
    assert recv.long_timeout_us == cfg.rtt_us == 100_000
    assert recv.nominal_gap_us == cfg.flows.interval_us == 10_000
    assert recv.reorder_grace_us == cfg.reorder_grace_us
    assert recv.renack_after_us == cfg.deadline_us
    assert recv.horizon_us == cfg.horizon_us
    egress = EgressRecovery(cfg, log)
    assert egress.claim_owd_us == cfg.topology.direct.max_delay_us == 54_000
    assert (egress.deadline_us, egress.boundary_wait_us, egress.horizon_us) == (
        cfg.deadline_us, cfg.boundary_wait_us, cfg.horizon_us)


def test_micros_are_stored_on_first_read():
    cfg = validate(minimal())
    flows = cfg.flows
    assert "interval_us" not in vars(flows)
    assert flows.interval_us == int(round(flows.interval_ms * 1000)) == 10_000
    assert flows.on_us == int(round(flows.on_s * 1_000_000)) == 2_000_000
    assert vars(flows)["interval_us"] == 10_000 and vars(flows)["on_us"] == 2_000_000
    # a new instance with one field changed does not keep the old value
    fields = {name: getattr(flows, name) for name in Flows.FIELDS}
    assert Flows(**{**fields, "interval_ms": 7.5}).interval_us == 7_500
    # seeds reach the forked workers pickled
    back = pickle.loads(pickle.dumps(cfg))
    assert back == cfg
    assert (back.flows.interval_us, back.flows.on_us, back.duration_us) == (
        10_000, 2_000_000, 4_000_000)


def test_sections_are_frozen_values():
    cfg = validate(minimal())
    with pytest.raises(AttributeError):
        cfg.flows.count = 3
    with pytest.raises(AttributeError):
        del cfg.flows.count
    with pytest.raises(AttributeError):
        cfg.topology.direct = cfg.topology.access
    assert cfg.flows.count == 2
    # a second tree from the same document is equal, cached micros or not
    again = validate(minimal())
    assert cfg.flows.interval_us == 10_000 and "interval_us" not in vars(again.flows)
    assert again == cfg and hash(again) == hash(cfg)
    changed = validate(apply_overrides(minimal(), ["topology.access.jitter_ms=1"]))
    assert changed != cfg and changed.topology.access != cfg.topology.access
    assert changed.topology.direct == cfg.topology.direct
    assert len({cfg, again, changed}) == 2


def test_sections_take_their_fields_by_keyword_only():
    assert Link(delay_ms=5.0) == Link(delay_ms=5.0, jitter_ms=0.0, loss=None)
    with pytest.raises(TypeError, match="delay_ms"):
        Link(jitter_ms=1.0)  # required and missing
    with pytest.raises(TypeError, match="jiter_ms"):
        Link(delay_ms=5.0, jiter_ms=1.0)
    with pytest.raises(TypeError):
        Link(5.0)


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


# (dotted path, value, text the error must contain); a row marked
# "folded" names a knob that became a constant, so its key is unknown
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
    ("topology.access.bandwidth_mbps", 0, "topology.access.bandwidth_mbps"),  # folded
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
    ("coding.cross_flush_ms", 0, "coding.cross_flush_ms"),  # folded
    ("coding.in_flush_ms", 0, "coding.in_flush_ms"),  # folded
    ("coding.rate", 1, "rate"),
    # recovery: the section is gone, so each of its former keys, at its
    # former default, fails as the unknown key "recovery"
    ("recovery", 3, "recovery"),
    ("recovery.deadline_rtt", 1.0, "recovery: unknown key"),
    ("recovery.store_ttl_rtt", 4.0, "recovery: unknown key"),
    ("recovery.proactive_nacks", 3, "recovery: unknown key"),
    ("recovery.cache_packets", 2048, "recovery: unknown key"),
    ("recovery.cache_ttl_rtt", 4.0, "recovery: unknown key"),
    ("recovery.retries", 1, "recovery: unknown key"),
    # detector
    ("detector.kind", "three_state", "detector.kind"),
    ("detector.small_ms", 0, "detector.small_ms"),  # folded
    ("detector.long_rtt", 0, "detector.long_rtt"),  # folded
    ("detector.burst_factor", 0, "detector.burst_factor"),  # folded
    ("detector.giveup_nacks", 0, "detector.giveup_nacks"),  # folded
    ("detector.window", 15, "window"),
    # straggler
    *[("straggler", without(STRAGGLER, key), key) for key in STRAGGLER],
    ("straggler", {**STRAGGLER, "receiver": -1}, "straggler.receiver"),
    ("straggler", {**STRAGGLER, "delay_ms": 0}, "straggler.delay_ms"),
    ("straggler", {**STRAGGLER, "jitter_ms": 1.0}, "jitter_ms"),
    # cost: the section is gone, its one knob folded into
    # metrics.PRICE_PER_GB, so the section is an unknown key
    ("cost.price_per_gb", 0.087, "cost: unknown key"),
    ("cost.currency", "usd", "cost: unknown key"),
    # appended, so the ids of the cases above stay as they were
    ("seeds", [4, 1, 4], "seeds: 4 repeated"),
    # folded knobs at a value they used to accept (their default, where
    # they had one): a file that still sets one fails loudly
    *[(path, value, f"{path}: unknown key") for path, value in [
        ("topology.access.bandwidth_mbps", 100.0),
        ("coding.cross_flush_ms", 30.0),
        ("coding.in_flush_ms", 50.0),
        ("detector.small_ms", 25.0),
        ("detector.long_rtt", 1.0),
        ("detector.burst_factor", 4.0),
        ("detector.giveup_nacks", 8)]],
]


@pytest.mark.parametrize("path,value,expected", REJECTED)
def test_schema_rule_rejects(path, value, expected):
    with pytest.raises(ScenarioError, match=re.escape(expected)):
        validate(edited(path, value))


@pytest.mark.parametrize("override", ["flows.count=2.0", "coding.k_max=4.0",
                                      "flows.selective_first_n=2.0"])
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
    out = apply_overrides(minimal(), ["straggler.delay_ms=10"])
    assert out["straggler"]["delay_ms"] == 10


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
    with pytest.raises(ScenarioError, match="unparseable value"):
        apply_overrides(minimal(), ["topology.direct.loss={kind: bernoulli"])


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
    with pytest.raises(ScenarioError, match="YAML parse error"):
        load(str(p))


def test_both_yaml_parsers_read_the_bundled_files_alike():
    # load reads files with caspr's own YAML-subset parser; each bundled
    # scenario must mean what PyYAML's pure-Python SafeLoader reads
    for name in bundled_names():
        text = pathlib.Path(bundled_path(name)).read_text()
        assert load(bundled_path(name)) == validate(yaml.load(text, yaml.SafeLoader)), name


# -- the YAML subset, with PyYAML as the oracle -------------------------------

# identifier-like strings, from letters that also spell yes, no, on, off,
# true, false and null
IDENTIFIERS = st.builds("{}{}".format, st.sampled_from("aefilnorstuy"),
                        st.text("aefilnorstuy_09", max_size=5))
# strings that PyYAML must quote, or that the subset may refuse
TRICKY = ["yes", "No", "on", "OFF", "null", "~", "010", "0x1f", "1e5", "1_000",
          "1:30", ".inf", "2001-12-14", "<<", "=", "'q'", '"q"', "it's", "a: b",
          "a #b", "2 parity over 20", "- x", "-", "#", "[x]", "{x: y}", "x, y",
          "?", "&a", "*a", "!t", "|", ">", "%", "@", "`", "", " padded "]
KEYS = IDENTIFIERS | st.sampled_from(TRICKY)
SCALARS = (st.none() | st.booleans() | st.integers(-10**6, 10**12)
           | st.floats(allow_nan=False, allow_infinity=False) | KEYS)
DOCUMENTS = st.recursive(
    st.lists(SCALARS, max_size=3) | st.dictionaries(KEYS, SCALARS, max_size=3),
    lambda inner: (st.lists(inner | SCALARS, max_size=3)
                   | st.dictionaries(KEYS, inner | SCALARS, max_size=3)),
    max_leaves=12)


def typed(value):
    """value with the type of every node and scalar spelled out"""
    if isinstance(value, dict):
        return "dict", [(typed(k), typed(v)) for k, v in value.items()]
    if isinstance(value, list):
        return "list", [typed(v) for v in value]
    return type(value).__name__, value


def strings(value):
    if isinstance(value, dict):
        return [s for k, v in value.items() for s in strings(k) + strings(v)]
    if isinstance(value, list):
        return [s for v in value for s in strings(v)]
    return [value] if isinstance(value, str) else []


@settings(max_examples=300, derandomize=True, deadline=None)
@given(doc=DOCUMENTS)
def test_the_yaml_subset_reads_what_pyyaml_reads_or_refuses(doc):
    # only a tricky string may be refused; identifiers, numbers, bools
    # and nulls always parse
    plain = all(s.isidentifier() for s in strings(doc))
    # block, flow and mixed style, every line unfolded: the subset reads
    # no multi-line scalar or flow collection
    for flow_style in (False, True, None):
        text = yaml.safe_dump(doc, default_flow_style=flow_style, width=2**30)
        try:
            got = _YAMLParser(text).parse()
        except ScenarioError:
            assert not plain, text
            continue
        assert typed(got) == typed(yaml.load(text, yaml.SafeLoader)), text


def test_the_subset_types_scalars_as_pyyaml_does():
    forms = ["~", "null", "Null", "NULL", "0", "-0", "+7", "12", "1.0", "1.", "-01.5",
             "1.0e-05", "2.5E+3", "'it''s'", "''", '"q"', "y", "bernoulli",
             "2 parity over 20", "[1, 2.5, x]", "{kind: bernoulli, p: 0.05}"]
    forms += [form for word in ("yes", "no", "true", "false", "on", "off")
              for form in (word, word.capitalize(), word.upper())]
    for form in forms:
        text = f"k: {form}"
        assert typed(_YAMLParser(text).parse()) == typed(yaml.safe_load(text)), form


# scalars as a person types them, not as a dumper writes them
TOKENS = st.lists(st.sampled_from([
    "0", "1", "07", "1.0", "-", "+", ".", "e", "E", "e5", "e-05", "_", ":", "x",
    "~", " ", "#", " #c", "'", '"', ",", "yes", "Yes", "NO", "on", "Off", "null",
    "NULL", "true", "FALSE", "y", "inf", "nan"]), min_size=1, max_size=5).map("".join)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(token=TOKENS, in_flow=st.booleans())
def test_typed_scalars_read_as_pyyaml_reads_them_or_fail(token, in_flow):
    text = f"[{token}]" if in_flow else f"k: {token}"
    try:
        got = _YAMLParser(text).parse()
    except ScenarioError:
        return
    try:
        expected = yaml.load(text, yaml.SafeLoader)
    except yaml.YAMLError:
        pytest.fail(f"{text!r} read as {got!r}, but PyYAML refuses it")
    assert typed(got) == typed(expected), text


@pytest.mark.parametrize("text,expected", [
    ("a:\n-\n  b: 1\n- 2\n", {"a": [{"b": 1}, 2]}),
    ("-\n  - 1\n", [[1]]),
])
def test_nodes_below_a_bare_entry_read_as_pyyaml_reads_them(text, expected):
    # a sequence may sit at its key's indentation, and a bare "-" holds
    # the block node indented below it
    assert _YAMLParser(text).parse() == yaml.load(text, yaml.SafeLoader) == expected


@pytest.mark.parametrize("text,line", [
    pytest.param("a: 1\nb: &x 2\n", 2, id="anchor"),
    pytest.param("a: 1\nb: *x\n", 2, id="alias"),
    pytest.param("a: !!str 1\n", 1, id="tag"),
    pytest.param("a: |\n  text\n", 1, id="literal-block-scalar"),
    pytest.param("a: >\n  text\n", 1, id="folded-block-scalar"),
    pytest.param("a: 1\nb: one\n  two\n", 3, id="multi-line-plain"),
    pytest.param("a: 'one\n  two'\n", 1, id="multi-line-quoted"),
    pytest.param("a: [1,\n  2]\n", 1, id="multi-line-flow"),
    pytest.param("a:\n\tb: 1\n", 2, id="tab-indentation"),
    pytest.param("a: 1\nb: 2\na: 3\n", 3, id="duplicate-key"),
    pytest.param("a: {b: 1, b: 2}\n", 1, id="duplicate-flow-key"),
    pytest.param("a: \"x\\ty\"\n", 1, id="escape-sequence"),
    pytest.param("a: 010\n", 1, id="octal"),
    pytest.param("a: 0x1f\n", 1, id="hex"),
    pytest.param("a: 1_000\n", 1, id="digit-separator"),
    pytest.param("a: 1:30\n", 1, id="sexagesimal"),
    pytest.param("a: .inf\n", 1, id="infinity"),
    pytest.param("a: 1.0e5\n", 1, id="unsigned-exponent"),
    pytest.param("a: 1\nb: " + "1" * 5000 + "\n", 2, id="int-past-int-conversion-limit"),
    pytest.param("a: 2001-12-14\n", 1, id="timestamp"),
    pytest.param("a: 1\n<<: {b: 2}\n", 2, id="merge-key"),
    pytest.param("--- \na: 1\n", 1, id="document-marker"),
    # PyYAML folds the deeper entry into the scalar: {'a': ['1 - 2']}
    pytest.param("a:\n  - 1\n   - 2\n", 3, id="entry-past-its-sequence"),
    pytest.param("[1]: x\n", 1, id="flow-collection-key"),
    # PyYAML reads a flow mapping's bare key as {'b': None}
    pytest.param("a: {b}\n", 1, id="flow-key-without-value"),
    pytest.param("x\ny: 1\n", 2, id="text-after-the-document"),
    pytest.param("a: 1\n- 2\n", 2, id="entry-after-a-mapping"),
])
def test_yaml_outside_the_subset_fails_with_its_line(tmp_path, text, line):
    p = tmp_path / "x.yaml"
    p.write_text(text)
    with pytest.raises(ScenarioError, match=f"YAML parse error: line {line}: "):
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
    assert {name: getattr(cfg.straggler, name) for name in Straggler.FIELDS} == raw["straggler"]
    assert cfg.detector.kind == "two_state" and "detector" not in raw


# a documented ``--set PATH=VALUE`` recipe; PATH is lower case, so the
# README's placeholder is not one
RECIPE = re.compile(r"--set ([a-z_][\w.]*=[^\s`)]+)")


def documented_recipes():
    """(scenario, override) for each recipe in the README, which names
    its scenario on the same line, and in the bundled files' comments."""
    readme = pathlib.Path(__file__).parent.parent / "README.md"
    for line in readme.read_text().splitlines():
        run = re.search(r"caspr run (\w+)", line)
        for override in RECIPE.findall(line):
            yield run.group(1) if run else line, override
    for name in bundled_names():
        with open(bundled_path(name)) as f:
            for line in f:
                if line.lstrip().startswith("#"):
                    for override in RECIPE.findall(line):
                        yield name, override


def test_documented_recipes_apply():
    recipes = sorted(set(documented_recipes()))
    assert len(recipes) >= 4, recipes
    for name, override in recipes:
        path = bundled_path(name)
        assert path, f"no bundled scenario named in {name!r}"
        load(path, [override])
        value = override.partition("=")[2]
        assert typed(_YAMLParser(value).parse()) == typed(yaml.safe_load(value)), override
