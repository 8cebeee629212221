"""Declared concurrency contracts: memo tables safe under concurrent
growth, pure evaluators safe for unrestricted concurrent use."""


import cmath
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

from conftest import clear_memos

from barnesg import backend, engine
from barnesg.engine import (ComputeParams, b0_of_tau, choose_params,
                            log_double_gamma)
from barnesg.kernels import log_gamma, polygamma
from barnesg.polys import p_poly_recursive, q_poly, q_poly_recursive


def test_poly_memo_concurrent_growth():
    # hammer the append-only tables from many threads; results must be the
    # unique exact polynomials
    with ThreadPoolExecutor(max_workers=8) as ex:
        qs = list(ex.map(q_poly, [35] * 8 + list(range(30))))
        qr = list(ex.map(q_poly_recursive, [35] * 8 + list(range(30))))
        ps = list(ex.map(p_poly_recursive, [18] * 8 + list(range(1, 15))))
    assert all(q == qs[0] for q in qs[:8])
    assert qs[0] == qr[0]
    assert all(p == ps[0] for p in ps[:8])


def test_engine_concurrent_evaluations_deterministic():
    params = ComputeParams(N=300, M=8, m_cd=96)
    args = [(1.3 + 0.2j, 1.1 + 0.4j)] * 6

    def run(zt):
        return log_double_gamma(*zt, params).log_value

    serial = run(args[0])
    with ThreadPoolExecutor(max_workers=6) as ex:
        results = list(ex.map(run, args))
    assert all(r == serial for r in results)  # bit-identical


def test_deferred_plan_read_by_threads():
    # 8 threads make the first reads of one fresh automatic result's
    # params_used at once: each may plan, and all get the same plan
    clear_memos()
    z, tau = 2.3 - 0.4j, 0.8 + 0.35j
    r = log_double_gamma(z, tau)
    start = threading.Barrier(8)

    def read(_):
        start.wait()
        return r.params_used

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as ex:
            plans = list(ex.map(read, range(8), timeout=120))
    finally:
        sys.setswitchinterval(old)
    assert all(p == choose_params(z, tau) for p in plans)
    assert r.params_used == plans[0]


def test_per_tau_memos_under_concurrent_fill_and_eviction():
    # 8 threads evaluate distinct z at 3 shared tau (both gn_sum branches and
    # the all-direct sector), interleaved with 10 single-use tau that evict
    # them; every result must equal the serial one bit for bit
    shared = (1.1 + 0.4j, 0.6 + 0.9j, -0.9 + 0.3j)
    evicting = [complex(1.7, 0.05 + 0.07 * k) for k in range(10)]
    jobs = [(complex(0.3 + 0.45 * k, 0.2 - 0.1 * k), tau)
            for k in range(12) for tau in shared]
    for k, tau in enumerate(evicting):
        jobs.insert(4 * k + 2, (complex(0.5, 0.1 * k), tau))
    jobs.append((9.0 + 2.0j, shared[0]))   # a later stable switch point
    params = ComputeParams(N=200, M=10, m_cd=64)

    def run(zt):
        return repr(log_double_gamma(zt[0], zt[1], params).log_value)

    serial = [run(zt) for zt in jobs]
    for k in range(8):   # evict every tau above: the threads start cold
        log_double_gamma(0.5, complex(2.3, 0.05 + 0.07 * k), params)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(2):   # cold, then warm
            with ThreadPoolExecutor(max_workers=8) as ex:
                results = list(ex.map(run, jobs, timeout=120))
            assert results == serial
    finally:
        sys.setswitchinterval(old)


def test_p_rows_raced_by_two_plans_at_one_tau():
    # 8 threads alternate two (N, M) at one shared tau, from a cold
    # backend._tau_memo, so they race the fill of the entry's P_k rows
    # (TauEntry.p_rows), then warm: whole evaluations, then the correction
    # alone (engine._correction); every result must equal the serial one
    # bit for bit
    tau = 0.95 + 0.4j
    plans = (ComputeParams(N=60, M=7, m_cd=64), ComputeParams(N=75, M=13, m_cd=64))
    zs = [complex(0.2 + 0.15 * k, 0.4 - 0.05 * k) for k in range(48)]
    jobs = [(z, plans[k % 2]) for k, z in enumerate(zs)]

    def run(job):
        return repr(log_double_gamma(job[0], tau, job[1]).log_value)

    def run_correction(job):
        return repr(engine._correction(job[0], tau, job[1].N, job[1].M))

    old = sys.getswitchinterval()
    for f, js in ((run, jobs), (run_correction, jobs * 40)):
        serial = [f(job) for job in js]
        backend._tau_memo.cache_clear()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(2):
                with ThreadPoolExecutor(max_workers=8) as ex:
                    results = list(ex.map(f, js, timeout=120))
                assert results == serial
        finally:
            sys.setswitchinterval(old)


def test_stable_series_built_and_read_by_concurrent_threads():
    # 8 threads sum gn_sum's stable range at one tau, for z of several
    # series classes and two N, so that they build the same (tau, a)
    # coefficient sets and Hurwitz rows side by side and read each other's,
    # two N apart (so their S(N + 1) sets differ); first with every memo
    # cleared, then warm. Every result has the serial bits
    tau = 1.05 + 0.35j
    jobs = [(cmath.rect(0.2 + 0.35 * k, 0.7 * k), 150 + k % 2)
            for k in range(24)] * 3

    def run(job):
        return repr(backend.gn_sum(job[0], tau, job[1]))

    serial = [run(job) for job in jobs]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for clear in (True, False):
            if clear:
                clear_memos()
            with ThreadPoolExecutor(max_workers=8) as ex:
                results = list(ex.map(run, jobs, timeout=120))
            assert results == serial
    finally:
        sys.setswitchinterval(old)


def test_b0_memo_under_concurrent_fill():
    # 8 threads ask for b0 at one tau, first with the memo cleared (each may
    # miss and compute it) and then warm; every value has the serial bits
    tau = 1.2 + 0.7j
    engine._b0_memo.cache_clear()
    serial = repr(b0_of_tau(tau))
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for clear in (True, False):
            if clear:
                engine._b0_memo.cache_clear()
            with ThreadPoolExecutor(max_workers=8) as ex:
                results = list(ex.map(lambda t: repr(b0_of_tau(t)), [tau] * 8,
                                      timeout=120))
            assert results == [serial] * 8
    finally:
        sys.setswitchinterval(old)
    assert engine._b0_memo.cache_info().currsize == 1


def test_kernels_concurrent_use():
    zs = [complex(0.5 + 0.1 * k, 0.3 * k) for k in range(24)]
    with ThreadPoolExecutor(max_workers=8) as ex:
        a = list(ex.map(log_gamma, zs))
        b = list(ex.map(lambda z: polygamma(2, z), zs))
    assert a == [log_gamma(z) for z in zs]
    assert b == [polygamma(2, z) for z in zs]


def test_memo_results_stable_after_growth():
    q10 = q_poly(10)
    q_poly(60)  # grow the table well past the earlier request
    assert q_poly(10) is q10  # append-only: the cached object is untouched
    # q_60 constant term is B_60 = C(60,0) B_0 B_60; cross-route check
    assert q_poly(60) == q_poly_recursive(60)
