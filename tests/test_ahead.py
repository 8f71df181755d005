"""One seed split across two processes (caspr.ahead): the nodes nothing
flows back into run ahead in a forked process and stream their
deliveries back.  A split run must deliver and write what a run in one
process does, fall back to one process where it cannot split, and leave
no process behind when either side fails."""

import io
import os
from collections import Counter

import pytest

from caspr import ahead, endpoint, netsim, runner, scenario
from caspr.netsim import Simulator
from caspr.scenario import BernoulliLoss
from test_netsim import Chatter, Recorder, assert_no_marker, dropped_seqs

SHORT = ["duration_s=3"]

CASES = [(name, seed, SHORT) for name in scenario.bundled_names()
         for seed in scenario.load(scenario.bundled_path(name)).seeds]
# senders still sending when the run ends, so deliveries are in flight
# on both sides of the split
CASES.append(("skype_analog", 5, SHORT + ["cooldown_s=0"]))


def count_forks(monkeypatch):
    """The pids os.fork returns to this process from now on."""
    forked = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return forked


def assert_reaped():
    """No child process left, running or zombie."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# -- the simulator ------------------------------------------------------


class Tallying(Chatter):
    """A Chatter that bumps a shared tally on every timer."""

    def __init__(self, tally, *args):
        super().__init__(*args)
        self.tally = tally

    def on_timer(self, token):
        self.tally["ticks"] += 1
        super().on_timer(token)


def feed_run(split, until_us, delay_us=1000, jitter_us=300, first_us=None):
    """a sends 200 packets to b over a lossy jittered link, and b and c
    are linked both ways, so a alone can run ahead; split, after a
    first run in one process to first_us if given.  What b saw, the
    drops, the tally and the link counters."""
    tally = Counter()
    sim = Simulator(5)
    b = Recorder()
    sim.add_node("a", Tallying(tally, "a>b", 200, 100))
    sim.add_node("b", b)
    sim.add_node("c", Recorder())
    drop = BernoulliLoss(p=0.2).dropper(sim.loss_rng("a>b"))
    link = sim.add_link("a>b", "a", "b", delay_us=delay_us, jitter_us=jitter_us, drop=drop)
    sim.add_link("b>c", "b", "c", delay_us=10)
    sim.add_link("c>b", "c", "b", delay_us=10)
    drops = dropped_seqs(link)
    sim.at(0, "a", ("tick",))
    assert ahead.group(sim) == {"a"}
    assert ahead.lookahead(sim, {"a"}) == delay_us - jitter_us
    if first_us is not None:
        sim.run(first_us)
    if split:
        ahead.run(sim, until_us, tally)
    else:
        sim.run(until_us)
    sim.check_conservation()
    assert_no_marker(sim)
    counts = {name: value for name, value in vars(link).items()
              if name.endswith(("_count", "_bytes"))}
    return b.messages, drops, tally, counts


@pytest.mark.parametrize("until_us", [10_000, 15_432, 40_000])
def test_a_split_run_delivers_what_one_process_delivers(monkeypatch, until_us):
    forked = count_forks(monkeypatch)
    alone = feed_run(False, until_us)
    assert not forked
    split = feed_run(True, until_us)
    assert len(forked) == 1
    assert split == alone
    messages, drops, tally, counts = split
    assert messages and drops and tally["ticks"] > 0
    # a's last packet leaves at 19.9 ms
    assert (counts["inflight_count"] > 0) == (until_us < 20_000)
    assert_reaped()


def test_a_run_splits_after_running_in_one_process(monkeypatch):
    # the forked side reports only what it adds to the counters and the
    # tally after the fork
    forked = count_forks(monkeypatch)
    alone = feed_run(False, 15_432, first_us=7_000)
    split = feed_run(True, 15_432, first_us=7_000)
    assert len(forked) == 1
    assert split == alone
    assert split[2]["ticks"] > 70 and split[3]["delivered_count"] > 40
    assert_reaped()


def tied_run(split):
    """a (ahead) and c (behind) both send to b every 100 us with no
    jitter, so their deliveries tie at every instant from t = 1000 on,
    the lookahead itself; at a tie a>b's delivery comes first."""
    sim = Simulator(0)
    b = Recorder()
    sim.add_node("a", Chatter("a>b", 100, 100))
    sim.add_node("b", b)
    sim.add_node("c", Chatter("c>b", 100, 100))
    sim.add_link("a>b", "a", "b", delay_us=1000)
    sim.add_link("b>c", "b", "c", delay_us=1000)
    sim.add_link("c>b", "c", "b", delay_us=1000)
    sim.at(0, "a", ("tick",))
    sim.at(0, "c", ("tick",))
    if split:
        ahead.run(sim, 5_000)
    else:
        sim.run(5_000)
    return [(t, link) for t, link, _ in b.messages]


def test_deliveries_due_a_lookahead_after_a_watermark_keep_their_order(monkeypatch):
    forked = count_forks(monkeypatch)
    alone = tied_run(False)
    assert alone[:4] == [(1000, "a>b"), (1000, "c>b"), (1100, "a>b"), (1100, "c>b")]
    assert tied_run(True) == alone
    assert len(forked) == 1


def test_a_link_that_can_deliver_at_once_keeps_the_run_in_one_process(monkeypatch):
    forked = count_forks(monkeypatch)
    assert feed_run(True, 30_000, 500, 500) == feed_run(False, 30_000, 500, 500)
    assert not forked


def test_a_traced_run_does_not_split():
    sim = Simulator(0, trace_file=io.StringIO())
    with pytest.raises(ValueError, match="traced run"):
        ahead.run(sim, 1_000)


def test_a_split_run_cannot_be_continued():
    sim = Simulator(0)
    for name in "abc":
        sim.add_node(name, Recorder())
    for src, dst in ["ab", "bc", "cb"]:
        sim.add_link(f"{src}>{dst}", src, dst, delay_us=100)
    ahead.run(sim, 2_000)
    with pytest.raises(RuntimeError, match="cannot be continued"):
        sim.run(4_000)
    with pytest.raises(RuntimeError, match="cannot be continued"):
        ahead.run(sim, 4_000)


def test_the_group_grows_from_the_nodes_with_no_inbound_link():
    sim = Simulator(0)
    for name in "abcde":
        sim.add_node(name, Recorder())
    # a feeds b and c, b feeds c, c feeds d; d and e talk both ways
    for src, dst in ["ab", "ac", "bc", "cd", "de", "ed"]:
        sim.add_link(f"{src}>{dst}", src, dst, delay_us=100 * (ord(src) - 96),
                     jitter_us=10)
    assert ahead.group(sim) == {"a", "b", "c"}
    assert ahead.lookahead(sim, {"a", "b", "c"}) == 290  # c>d
    assert ahead.lookahead(sim, {"a"}) == 90
    assert ahead.lookahead(sim, set("abcde")) == ahead.lookahead(sim, set()) == 0


# -- a seed of a bundled scenario -------------------------------------------


def cpus(monkeypatch, n):
    """Make run_scenario see n usable CPUs."""
    monkeypatch.setattr(runner, "_worker_count", lambda n_seeds: min(n_seeds, n))


def plain(m):
    """A RunMetrics as plain comparable data."""
    data = dict(vars(m))
    data["fec"] = {pct: vars(level) for pct, level in m.fec.items()}
    return data


def run(tmp_path, cfg, seed, label, **kwargs):
    out = tmp_path / label
    (m,) = runner.run_scenario(cfg, str(out), [seed], **kwargs)
    return plain(m), {f.name: f.read_bytes() for f in sorted(out.iterdir())}


@pytest.mark.parametrize("name, seed, sets", CASES)
def test_a_split_seed_writes_what_one_process_writes(monkeypatch, tmp_path, name, seed, sets):
    cfg = scenario.load(scenario.bundled_path(name), sets)
    forked = count_forks(monkeypatch)
    cpus(monkeypatch, 1)
    alone = run(tmp_path, cfg, seed, "alone")
    assert not forked
    cpus(monkeypatch, 2)
    split = run(tmp_path, cfg, seed, "split")
    assert len(forked) == 1
    assert split[0] == alone[0] and split[0]["sent"] > 0
    assert split[1] == alone[1]


def test_the_group_is_the_senders_and_dc1(monkeypatch):
    cfg = scenario.load(scenario.bundled_path("skype_analog"), SHORT)
    seen = {}
    check = netsim.Simulator.check_conservation

    def keep(sim):
        seen["group"] = group = ahead.group(sim)
        seen["lookahead"] = ahead.lookahead(sim, group)
        check(sim)

    monkeypatch.setattr(netsim.Simulator, "check_conservation", keep)
    runner.run_seed(cfg, 5)
    assert seen["group"] == {f"s{i}" for i in range(cfg.flows.count)} | {"dc1"}
    topo = cfg.topology
    assert seen["lookahead"] == min(link.delay_us - link.jitter_us
                                    for link in (topo.direct, topo.inter_dc)) == 44_500


@pytest.mark.parametrize("fallback", ["trace", "one_cpu", "no_fork", "no_lookahead"])
def test_a_seed_that_cannot_split_runs_in_one_process(monkeypatch, tmp_path, fallback):
    sets = SHORT
    if fallback == "no_lookahead":
        # a direct-path packet may arrive the instant it is sent
        sets = SHORT + ["topology.direct.jitter_ms=80"]
    cfg = scenario.load(scenario.bundled_path("skype_analog"), sets)
    cpus(monkeypatch, 1)
    alone = run(tmp_path, cfg, 5, "alone")
    monkeypatch.undo()
    forked = count_forks(monkeypatch)
    kwargs = {}
    if fallback == "trace":
        kwargs["trace"] = True
    elif fallback == "one_cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    elif fallback == "no_fork":
        monkeypatch.delattr(os, "fork")
    else:
        cpus(monkeypatch, 2)
    metrics, files = run(tmp_path, cfg, 5, "fallback", **kwargs)
    assert not forked
    assert metrics == alone[0]
    assert {name: files[name] for name in alone[1]} == alone[1]


@pytest.mark.parametrize("cls, method", [
    (endpoint.Sender, "on_timer"),  # fails in the forked process
    (endpoint.Receiver, "on_message"),  # fails in this one
])
def test_a_failing_side_raises_its_error_and_leaves_no_process(
        monkeypatch, tmp_path, cls, method):
    handler = getattr(cls, method)
    calls = []

    def failing(self, *args):
        calls.append(None)
        if len(calls) == 500:
            raise LookupError(f"{cls.__name__}.{method} failed")
        return handler(self, *args)

    monkeypatch.setattr(cls, method, failing)
    forked = count_forks(monkeypatch)
    cpus(monkeypatch, 2)
    cfg = scenario.load(scenario.bundled_path("skype_analog"), SHORT)
    with pytest.raises(LookupError) as raised:
        runner.run_scenario(cfg, str(tmp_path), [5])
    assert type(raised.value) is LookupError
    assert str(raised.value) == f"{cls.__name__}.{method} failed"
    if hasattr(raised.value, "add_note"):  # Python 3.11+
        # an error from the forked process carries its traceback
        noted = "".join(getattr(raised.value, "__notes__", []))
        assert ("in the ahead process" in noted) == (cls is endpoint.Sender)
    assert len(forked) == 1
    assert_reaped()
