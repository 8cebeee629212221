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
