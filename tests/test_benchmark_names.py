"""The library names that the benchmark under perfbench/ binds still resolve,
and the library keeps the behaviour the benchmark relies on: every automatic
route reports choose_params' plan, and refusals come before any work.

perfbench/ is read here, never changed: a rename in the library that the
benchmark depends on fails this test instead of the benchmark run.
"""

import importlib
import importlib.util
import math
import pathlib

import pytest

import barnesg
from barnesg.engine import ComputeParams
from barnesg.errors import CapacityError, DomainError

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


def test_run_suite_calls_gn_sum_with_an_integer_n(monkeypatch):
    # The traced benchmark reads gn_sum's third argument as its term count
    # and measures backend.gn_sum.ns_per_term from the calls made through
    # the module name; a layer with no calls, or no terms, reads NaN there.
    # Automatic evaluations sum the product without gn_sum, so on scatter
    # and cold-cli that layer comes from run_suite's explicit plans alone.
    calls = []
    original = barnesg.backend.gn_sum

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(barnesg.backend, "gn_sum", counting)
    barnesg.identities.run_suite(0)
    assert calls
    assert all(type(args[2]) is int and args[2] > 0 for args in calls)


def test_auto_eval_calls_choose_params(monkeypatch):
    # The traced benchmark measures engine.choose_params.us_per_call from
    # the calls made through the name engine binds; a plan reached any
    # other way leaves that layer with no calls. An automatic evaluation at
    # |arg tau| <= 3pi/4 runs no plan and makes its call when params_used
    # is first read; the far sector, whose product fallback runs the plan,
    # calls it up front. perfbench's coverage phase takes the layer's
    # us_per_call on scatter from run_suite's calls, which the tracer sees
    # at every module that binds the function, as here.
    calls = []
    original = barnesg.engine.choose_params
    assert original is barnesg.identities.choose_params

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(barnesg.engine, "choose_params", counting)
    monkeypatch.setattr(barnesg.identities, "choose_params", counting)
    monkeypatch.setattr(barnesg, "choose_params", counting)
    rec = barnesg.engine.log_double_gamma(1.5 + 0.5j, 2.0)
    assert calls == []
    assert rec.params_used == original(1.5 + 0.5j, 2.0)
    assert calls == [(1.5 + 0.5j, 2.0 + 0j)]
    assert rec.params_used == original(1.5 + 0.5j, 2.0)
    assert len(calls) == 1
    barnesg.engine.log_double_gamma(0.3 + 0.2j, -1 + 0.1j)
    assert len(calls) >= 2
    del calls[:]
    barnesg.identities.run_suite(0)
    assert calls


@pytest.mark.parametrize("z, tau, route", [
    (1.5 + 0.5j, 2.0, "product"),
    (60 - 45j, 1.5, "asymptotic"),
    (-50.5 - 49.7j, 1j, "shifted"),
    (0.3 + 0.2j, -1 + 0.1j, "reflection"),
])
def test_every_automatic_route_records_the_plan(z, tau, route):
    # the scatter workload reads rec.params_used.N on every route, to decide
    # whether its reference value can be trusted
    rec = barnesg.engine.log_double_gamma(z, tau)
    assert rec.route == route
    assert rec.params_used == barnesg.engine.choose_params(z, tau)


def test_untraced_run_bound_names():
    # the scatter warm-up clears the modular-forms cache, and the verify
    # workload checks each suite run's identity ids against this tuple
    assert callable(barnesg.modular.modular_forms_cached.cache_clear)
    ids = tuple(r.identity_id for r in barnesg.identities.run_suite(0))
    assert ids == barnesg.identities.EXPECTED_IDENTITY_IDS


def _never(*args, **kwargs):
    raise AssertionError("work ran before the refusal")


_INTEGRAL_WORK = ("barnesg.engine.integrate_semiaxis",
                  "barnesg.engine.log_G_integrand",
                  "barnesg.modular.integrate_semiaxis",
                  "barnesg.modular.c_integrand",
                  "barnesg.modular.d_integrand")
_EN, _MO, _PO = "barnesg.engine", "barnesg.modular", "barnesg.polys"


@pytest.mark.parametrize("module, name, args, error, work", [
    # an explicit N past the cap: refused before the product is summed
    (_EN, "log_double_gamma", (1, 1, ComputeParams(N=10 ** 7)),
     CapacityError, ("barnesg.backend.gn_sum",
                     "barnesg.modular.modular_forms_cached")),
    # a log that leaves binary64 (here z^2 overflows in gamma2's prefactor)
    (_EN, "gamma2", (1e160, 1e160, 1e160), DomainError, ()),
    # non-finite input to the integral routes: refused before quadrature
    (_EN, "log_G_via_integral", (math.inf, 1), DomainError, _INTEGRAL_WORK),
    (_EN, "log_G_via_integral", (1, math.nan), DomainError, _INTEGRAL_WORK),
    (_EN, "log_G_via_integral", (1, math.inf), DomainError, _INTEGRAL_WORK),
    (_MO, "C_via_integral", (math.nan,), DomainError, _INTEGRAL_WORK),
    (_MO, "D_via_integral", (math.nan,), DomainError, _INTEGRAL_WORK),
    (_MO, "D_via_integral", (complex(1, math.inf),), DomainError,
     _INTEGRAL_WORK),
    # the index checks of the exact families raise the package's error
    (_PO, "bernoulli_number", (-1,), DomainError, ()),
    (_PO, "bernoulli_polynomial", (-1,), DomainError, ()),
    (_PO, "q_poly", (-1,), DomainError, ()),
    (_PO, "q_poly_recursive", (-1,), DomainError, ()),
    (_PO, "p_poly", (0,), DomainError, ()),
    (_PO, "p_poly_recursive", (0,), DomainError, ()),
    (_PO, "p_poly_alt", (0,), DomainError, ()),
    (_PO, "_b_tilde", (2,), DomainError, ()),
    # an integer control given as a float: the package's error, not the
    # TypeError or ValueError of the first use of the value
    (_EN, "ComputeParams", (64, 2.5), DomainError, ()),
    (_EN, "ComputeParams", (100.5,), DomainError, ()),
    (_EN, "ComputeParams", (64, 12, 64.5), DomainError, ()),
    (_MO, "modular_forms_em", (1.5, 64.5), DomainError,
     ("barnesg.backend.cd_sums", "barnesg.modular.polygamma")),
    (_EN, "asymptotic_coeffs", (1.5, 2.5), DomainError,
     ("barnesg.engine._tail",)),
    (_EN, "log_double_gamma_asymptotic", (50, 1.5, 2.5), DomainError,
     ("barnesg.engine._coeffs_memo", "barnesg.engine.asymptotic_coeffs")),
    (_EN, "log_double_gamma_asymptotic", (50, 1.5, -3), DomainError,
     ("barnesg.engine._coeffs_memo", "barnesg.engine.asymptotic_coeffs")),
    ("barnesg.kernels", "polygamma", (2.0, 1 + 1j), DomainError,
     ("barnesg.backend.polygamma",)),
    ("barnesg.kernels", "QuadratureSpec", (1e-11, 2.5), DomainError, ()),
    (_PO, "q_poly", (2.5,), DomainError, ("barnesg.polys._MemoList.get",)),
    (_PO, "p_poly", (2.0,), DomainError, ("barnesg.polys._MemoList.get",)),
    (_PO, "bernoulli_number", (3.0,), DomainError,
     ("barnesg.polys._MemoList.get",)),
    (_PO, "q_terms", (-1,), DomainError, ("barnesg.polys._MemoList.get",)),
    (_PO, "q_terms", (2.5,), DomainError, ("barnesg.polys._MemoList.get",)),
    # an n_tail whose q coefficients overflow binary64: refused before any
    # coefficient is built
    (_EN, "asymptotic_coeffs", (1.5, 258), DomainError,
     ("barnesg.engine._tail",)),
    (_EN, "asymptotic_coeffs", (1.5, 10 ** 6), DomainError,
     ("barnesg.engine._tail",)),
    (_EN, "log_double_gamma_asymptotic", (50, 1.5, 258), DomainError,
     ("barnesg.engine._coeffs_memo", "barnesg.engine.asymptotic_coeffs")),
    (_EN, "log_double_gamma_asymptotic", (50, 1.5, 10 ** 6), DomainError,
     ("barnesg.engine._coeffs_memo", "barnesg.engine.asymptotic_coeffs")),
])
def test_refusals_come_before_any_work(monkeypatch, module, name, args,
                                       error, work):
    # a refusal that costs seconds would stall a benchmark op that reaches it
    for target in work:
        monkeypatch.setattr(target, _never)
    with pytest.raises(error):
        getattr(importlib.import_module(module), name)(*args)


def test_integer_controls_accept_numpy_integers():
    # the integer checks above refuse floats, not integer types other than int
    import numpy as np

    from barnesg import kernels, modular, polys
    assert ComputeParams(np.int64(64), np.int32(3), np.uint16(9)) == \
        ComputeParams(64, 3, 9)
    assert kernels.QuadratureSpec(max_level=np.int8(4)).max_level == 4
    assert modular.modular_forms_em(1.5, np.int64(64)) == \
        modular.modular_forms_em(1.5, 64)
    assert kernels.polygamma(np.int8(2), 1 + 1j) == kernels.polygamma(2, 1 + 1j)
    assert barnesg.asymptotic_coeffs(1.5, np.int64(2)) == \
        barnesg.asymptotic_coeffs(1.5, 2)
    assert barnesg.log_double_gamma_asymptotic(50, 1.5, np.int64(2)) == \
        barnesg.log_double_gamma_asymptotic(50, 1.5, 2)
    assert polys.q_poly(np.int64(5)) is polys.q_poly(5)
    assert polys.p_poly(np.uint8(3)) is polys.p_poly(3)
    assert polys.bernoulli_number(np.int16(4)) == polys.bernoulli_number(4)
