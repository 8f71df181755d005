"""The benchmark under perfbench/ reaches into caspr by name.

perfbench/tracer.py wraps the entry points listed in its LAYERS table,
and perfbench/worker.py and perfbench/kernel.py read a few more names.
A rename in src/caspr would otherwise surface only when the benchmark
runs; these tests resolve every one of those names the way the
benchmark does, and check that a traced run still calls each wrapped
entry point.  They read perfbench/ and change nothing there.
"""

import importlib
import importlib.util
import pathlib

import pytest

from caspr import runner, scenario

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(module: str, path: str):
    # as tracer.Patch.set does: attribute walk, then the owner's own __dict__
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner.__dict__[attr]


@pytest.mark.parametrize("module, path", [
    (module, path) for module, path, _, _ in load_tracer().LAYERS])
def test_every_traced_layer_resolves(module, path):
    assert callable(resolve(module, path))


@pytest.mark.parametrize("module, path", [
    ("caspr.runner", "run_seed"),
    ("caspr.runner", "run_scenario"),
    ("caspr.netsim", "Simulator.check_conservation"),
    ("caspr.gf256", "USE_NUMBA"),
    ("caspr.gf256", "gf_matmul"),
    ("caspr.gf256", "_matmul_numpy"),
    ("caspr.gf256", "parity_matrix"),
    ("caspr.gf256", "gf_inv_matrix"),
    ("caspr.scenario", "load"),
    ("caspr.scenario", "bundled_path"),
])
def test_names_the_benchmark_reads_exist(module, path):
    resolve(module, path)


# spans a bundled simulation never opens, each with the reason
UNREACHED = {
    # LAYERS wraps gf256.gf_matmul, but encode and decode multiply with
    # gf256.gf_combine, so the benchmark's kernel span sees no call
    "gf256.matmul",
}


def test_every_traced_layer_stays_on_the_call_path(tmp_path):
    # a name can resolve and still be bypassed, e.g. by a handler bound
    # per instance, and its span then reads 0 calls; one short bursty run
    # (timer NACKs, in-stream and cross decodes) reaches all the others
    tracer = load_tracer()
    spans = tracer.Tracer()
    cfg = scenario.load(scenario.bundled_path("short_flow_nack_economy"),
                        ["duration_s=5"])
    with tracer.Patch() as patch:
        tracer.install(patch, spans)
        runner.run_scenario(cfg, str(tmp_path), [21])
    calls = {name: span["calls"] for name, span in spans.snapshot().items()}
    assert {name for name, n in calls.items() if n == 0} == UNREACHED
