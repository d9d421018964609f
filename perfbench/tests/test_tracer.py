import sys
import types
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import brierlab
from brierlab import dgm, engine
from perfbench import workloads
from perfbench.tracer import Tracer


def _snapshot():
    modules = {
        name: dict(vars(module))
        for name, module in sys.modules.items()
        if module is not None and (name == "brierlab" or name.startswith("brierlab."))
    }
    methods = {attr: getattr(ProcessPoolExecutor, attr) for attr in ("__init__", "submit")}
    return modules, methods


def test_install_patches_every_holder_and_restore_puts_originals_back():
    before = _snapshot()
    original = dgm.derive_stream
    with Tracer() as tracer:
        workloads.install(tracer)
        assert engine.derive_stream is dgm.derive_stream
        assert engine.derive_stream is not original
        assert brierlab.derive_stream is engine.derive_stream
        engine.run_replication(
            engine.Scenario(dgm.TrueDistributionSpec.uniform(0, 1), dgm.PredictorTransformSpec.perfect(), 5),
            engine.replication_streams(1, 0, 0),
        )
    assert _snapshot() == before
    calls, self_s = tracer.summary()
    assert calls["dgm.derive_stream"] == 3
    assert calls["engine.run_replication"] == 1
    assert calls["validation.as_probability_vector"] == 1
    assert all(value >= 0.0 for value in self_s.values())


def test_restore_runs_when_the_traced_call_raises():
    before = _snapshot()
    with pytest.raises(brierlab.ValidationError):
        with Tracer() as tracer:
            workloads.install(tracer)
            dgm.sample_outcomes(np.array([2.0]), np.random.default_rng(0))
    assert _snapshot() == before


def test_missing_names_are_reported_absent():
    with Tracer() as tracer:
        tracer.wrap("engine", "no_such_function")
        tracer.wrap("no_such_module", "run")
        tracer.count_calls(ProcessPoolExecutor, "no_such_method", "engine.pool.none")
    assert tracer.absent == ["engine.no_such_function", "no_such_module.run", "engine.pool.none"]
    assert tracer.summary() == ({}, {})


def test_self_time_subtracts_direct_children_only(monkeypatch):
    clock = iter(range(100))
    monkeypatch.setattr("perfbench.tracer.time.perf_counter", lambda: float(next(clock)))
    package = types.ModuleType("fakepkg")
    module = types.ModuleType("fakepkg.mod")

    def inner():
        return 1

    def outer():
        return module.inner() + module.inner()

    module.inner, module.outer = inner, outer
    monkeypatch.setitem(sys.modules, "fakepkg", package)
    monkeypatch.setitem(sys.modules, "fakepkg.mod", module)
    with Tracer("fakepkg") as tracer:
        tracer.wrap("mod", "inner", ("units", lambda args, kwargs, result: result))
        tracer.wrap("mod", "outer")
        assert module.outer() == 2
    assert module.inner is inner and module.outer is outer
    calls, self_s = tracer.summary()
    # Clock ticks: outer starts 0, inner 1-2, inner 3-4, outer ends 5.
    assert calls == {"mod.outer": 1, "mod.inner": 2}
    assert self_s == {"mod.outer": 3.0, "mod.inner": 2.0}
    assert tracer.counts["mod.inner.units"] == 2
    assert tracer.parents == [-1, 0, 0]
