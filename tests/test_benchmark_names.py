"""The library names that the benchmark under perfbench/ binds still resolve.

perfbench/ is read here, never changed: a rename in the library that the
benchmark depends on fails this test instead of the benchmark run.
"""

import importlib
import importlib.util
import pathlib

import barnesg

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", PERFBENCH / "tracing.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_benchmark_bound_names_resolve():
    for span, mod_name, attr in _load_tracing().LAYERS:
        assert callable(getattr(importlib.import_module(mod_name), attr, None)), span
    # perfbench/sweep.py times these on barnesg.backend
    for name in ("gn_sum", "cd_sums", "loggamma", "digamma", "trigamma"):
        assert callable(getattr(barnesg.backend, name, None)), name
    # perfbench/run.py records these in every result file
    assert isinstance(barnesg.backend_name(), str)
    barnesg.engine._p_rounded.cache_info()
    barnesg.modular.modular_forms_cached.cache_info()


def test_run_suite_calls_lattice_distance(monkeypatch):
    # The traced benchmark measures engine.lattice_distance.us_per_call from
    # the calls run_suite makes through the name identities binds; a layer
    # with no calls reads NaN there.
    calls = []
    original = barnesg.identities.lattice_distance
    assert original is barnesg.engine.lattice_distance

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(barnesg.identities, "lattice_distance", counting)
    barnesg.identities.run_suite(0)
    assert calls


def test_auto_eval_calls_choose_params(monkeypatch):
    # The traced benchmark measures engine.choose_params.us_per_call from
    # the calls the automatic path makes through the name engine binds; a
    # plan reached any other way leaves that layer with no calls.
    calls = []
    original = barnesg.engine.choose_params

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(barnesg.engine, "choose_params", counting)
    barnesg.engine.log_double_gamma(1.5 + 0.5j, 2.0)
    assert calls
