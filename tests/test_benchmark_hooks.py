"""The benchmark in ``perfbench/`` reaches the package through names it looks
up at call time: the layer trace patches module attributes by name, and the
update-sweep workload calls the update path by name. A refactor that drops or
renames one of them breaks the benchmark; these tests catch that without
running it."""

import sys
from pathlib import Path

import pytest

import wassfilter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import layertrace  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("pipeline", [False, True])
def test_layer_trace_patches_and_restores_every_name(pipeline):
    modules = (wassfilter.harness, wassfilter.gsf, wassfilter.ngsf)
    before = [dict(vars(module)) for module in modules]
    tracer = layertrace.Tracer()
    layertrace.install(tracer, wassfilter, pipeline)
    patched = {name for _, name, _ in tracer._patched}
    tracer.unpatch()
    assert patched >= ({"kalman_gains", *layertrace.HARNESS_NAMES} if pipeline else
                       {"kalman_gains", "gsf_update", "ngsf_solve", "apply_ngsf_solution"})
    assert [dict(vars(module)) for module in modules] == before


def test_traced_update_sweep_passes_its_checks():
    sweep = workloads.UpdateSweep(wassfilter, seed=1, root=None)
    tracer = layertrace.Tracer()
    layertrace.install(tracer, wassfilter, pipeline=False)
    tracer.enabled = True
    try:
        for index, problem in enumerate(sweep.problems[:50]):
            assert sweep.check(index, sweep.update(problem))
    finally:
        tracer.unpatch()
    calls = tracer.layer_times()["calls"]
    assert (calls["gsf"], calls["ngsf"]) == (50, 100)
