"""Identity-suite behaviour: individual residual checks, determinism,
profiles, and coverage of the expected identity set."""

import cmath
import json
import math

import pytest
from conftest import clear_memos

from barnesg import engine
from barnesg.errors import DomainError
from barnesg.identities import (
    EXPECTED_IDENTITY_IDS,
    check_functional_equations,
    check_modular,
    check_multiplication,
    check_multiplication_tau_scaled,
    check_multiplication_z_scaled,
    check_product_identity,
    check_reflection,
    run_suite,
)

SQRT2 = math.sqrt(2)
SQRT3 = math.sqrt(3)


# ----------------------------------------------------------- example points

def test_reflection_examples():
    assert check_reflection(0.1, 1.2j) < 1e-9
    assert check_reflection(0.3 + 0.1j, 0.5 + 0.9j) < 1e-8
    assert check_reflection(0.0, 2j) < 1e-9


def test_reflection_minus_tau_side_runs_the_product(monkeypatch):
    # at -tau = -2 - 0.5i (|arg| = 0.92 pi) an automatic evaluation takes the
    # reflection route, which would check the identity against itself
    routes = {}
    inner = engine.log_double_gamma

    def recorded(z, tau, params=None):
        r = inner(z, tau, params)
        routes[complex(tau)] = r.route
        return r

    monkeypatch.setattr(engine, "log_double_gamma", recorded)
    z, tau = 0.2 - 0.1j, 2 + 0.5j
    assert abs(cmath.phase(-tau)) > 0.75 * math.pi
    assert inner(0.5 - z, -tau).route == "reflection"
    assert check_reflection(z, tau) < 1e-9
    assert routes == {tau: "product", -tau: "product"}


def test_reflection_domain():
    with pytest.raises(DomainError):
        check_reflection(0.1, 1.0)


def test_modular_examples():
    assert check_modular(SQRT3, SQRT3) < 1e-9  # reduces to the closed form
    assert check_modular(2.3, 0.7) < 1e-9
    assert check_modular(1.0, 1.3 + 0.7j) < 1e-10  # normalization point


def test_multiplication_examples():
    assert check_multiplication(1.4, SQRT2, 2, 1) < 1e-8
    assert check_multiplication(0.9 + 0.2j, 1 + 1j, 2, 3) < 1e-7
    assert check_multiplication(1.0, 1.7 + 0.2j, 1, 1) < 1e-10  # empty case


def test_multiplication_cost_cap():
    with pytest.raises(DomainError):
        check_multiplication(1.0, 1.0, 5, 1)


def test_product_identity_examples():
    assert check_product_identity(2.0, 2.0) < 1e-8      # z = tau anchor
    assert check_product_identity(2.5, 1.5) < 1e-8      # z = 1 + tau anchor
    assert check_product_identity(2.2 + 0.5j, 0.8) < 1e-8


def test_functional_equation_examples():
    r1, r2 = check_functional_equations(1.0, 3.0)  # G(2;3) = Gamma(1/3)
    assert r1 < 1e-10 and r2 < 1e-10
    r1, r2 = check_functional_equations(SQRT3, SQRT3)
    assert r1 < 1e-9 and r2 < 1e-9


def test_functional_equation_near_zero_conditioning():
    # 0.05 away from the lattice zero at -1: conditioning degrades but holds
    z = -1 + 0.05 * SQRT2 / 2 * (1 + 1j)
    r1, r2 = check_functional_equations(z + 2, SQRT2)  # z+2 clears, z+tau near
    assert r1 < 1e-7 and r2 < 1e-7


def test_checks_past_the_binary64_range_of_G():
    # G(z;tau) overflows binary64 at these points; the residuals come from
    # canonical logs, so they stay finite and small
    assert check_modular(30, 0.5) <= 1e-9
    assert check_modular(45, 0.5) <= 1e-9
    r1, r2 = check_functional_equations(80, 0.5)
    assert r1 <= 1e-9 and r2 <= 1e-9
    assert check_product_identity(30, 0.5) <= 1e-9
    assert check_multiplication_z_scaled(20, 0.5, 2) <= 1e-9
    assert check_multiplication_tau_scaled(30, 0.5, 2) <= 1e-9
    assert check_multiplication(20, 0.5, 2, 3) <= 1e-9


# ------------------------------------------------------------------ suite

def test_suite_default_passes():
    reports = run_suite(0, "default")
    assert all(r.passed for r in reports), [
        (r.identity_id, r.max_residual) for r in reports if not r.passed]


def test_suite_other_seed_passes():
    reports = run_suite(7, "default")
    assert all(r.passed for r in reports)


def test_suite_coverage_unique():
    reports = run_suite(0, "default")
    ids = [r.identity_id for r in reports]
    assert ids == list(EXPECTED_IDENTITY_IDS)
    assert len(set(ids)) == len(ids)


def test_suite_deterministic():
    # the first run starts with every memo cleared, the second finds every
    # b0 it needs in the expansion-coefficients memo; the reports agree bit
    # for bit
    clear_memos()
    a = [r.to_json_dict() for r in run_suite(3, "default")]
    misses = engine._coeffs_memo.cache_info().misses
    b = [r.to_json_dict() for r in run_suite(3, "default")]
    info = engine._coeffs_memo.cache_info()
    assert info.misses == misses and info.hits > 0
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_strict_profile_mechanics():
    default = run_suite(0, "default")
    strict = run_suite(0, "strict")
    for d, s in zip(default, strict):
        assert s.identity_id == d.identity_id
        assert s.tolerance == pytest.approx(d.tolerance / 10)
    # the report says which checks fail, if any
    failing = [r.identity_id for r in strict if not r.passed]
    assert isinstance(failing, list)


def test_unknown_profile():
    with pytest.raises(DomainError):
        run_suite(0, "loose")


def test_suite_never_aborts(monkeypatch):
    # a raising check becomes an inf residual plus a note, not an abort
    import barnesg.identities as ids

    def boom(z, tau):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(ids, "check_reflection", boom)
    reports = ids.run_suite(0, "default")
    by_id = {r.identity_id: r for r in reports}
    assert len(reports) == len(EXPECTED_IDENTITY_IDS)
    refl = by_id["reflection"]
    assert not refl.passed
    assert math.isinf(refl.max_residual)
    assert any("synthetic failure" in n for n in refl.notes)
    assert by_id["modular-inversion"].passed  # the rest still ran


# the check each report's residuals come from, by module attribute
_SUITE_CHECKS = {
    "check_functional_equations": ("shift-by-one", "shift-by-tau"),
    "check_reflection": ("reflection",),
    "check_modular": ("modular-inversion",),
    "check_multiplication": ("multiplication",),
    "check_multiplication_tau_scaled": ("multiplication-tau-scaled",),
    "check_multiplication_z_scaled": ("multiplication-z-scaled",),
    "check_product_identity": ("product-identity",),
    "_check_gamma2_normalization": ("gamma2-normalization",),
    "_check_gamma2_symmetry": ("gamma2-symmetry",),
    "_check_gamma2_shift_first": ("gamma2-shift-first",),
    "_check_gamma2_shift_second": ("gamma2-shift-second",),
    "check_b0_inversion": ("b0-inversion",),
    "check_b0_decomposition": ("b0-decomposition",),
    "check_b0_rational_scaling": ("b0-rational-scaling",),
    "d_reflection_residual": ("d-reflection",),
}


@pytest.mark.parametrize("name", sorted(_SUITE_CHECKS))
def test_suite_wiring(monkeypatch, name):
    # a check that raises fails exactly the reports it feeds, at every point
    import barnesg.identities as ids

    fed = sorted(i for own in _SUITE_CHECKS.values() for i in own)
    assert fed == sorted(EXPECTED_IDENTITY_IDS)  # every report has one check

    def boom(*args):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(ids, name, boom)
    reports = ids.run_suite(0, "default")
    assert [r.identity_id for r in reports] == list(EXPECTED_IDENTITY_IDS)
    for r in reports:
        if r.identity_id in _SUITE_CHECKS[name]:
            assert not r.passed, r.identity_id
            assert r.residuals and all(math.isinf(x) for x in r.residuals)
            assert len(r.notes) == len(r.points)
            assert all("synthetic failure" in n for n in r.notes)
        else:
            assert r.passed and not r.notes, (r.identity_id, r.notes)


@pytest.mark.parametrize("name, nan_slot", [("check_modular", None),
                                            ("check_functional_equations", 1)])
def test_suite_nan_residual_fails(monkeypatch, name, nan_slot):
    # a NaN that is not the first residual would slip past max(); the suite
    # reports it as inf plus a note instead
    import barnesg.identities as ids

    real = getattr(ids, name)
    calls = []

    def nan_at_second_point(*args):
        calls.append(args)
        out = real(*args)
        if len(calls) != 2:
            return out
        if nan_slot is None:
            return math.nan
        return tuple(math.nan if i == nan_slot else x for i, x in enumerate(out))

    monkeypatch.setattr(ids, name, nan_at_second_point)
    by_id = {r.identity_id: r for r in ids.run_suite(0, "default")}
    failed = _SUITE_CHECKS[name][0 if nan_slot is None else nan_slot]
    report = by_id[failed]
    assert not report.passed
    assert math.isinf(report.max_residual) and math.isinf(report.residuals[1])
    assert all(math.isfinite(x) for i, x in enumerate(report.residuals) if i != 1)
    assert len(report.notes) == 1 and "NaN" in report.notes[0]
    assert [r.identity_id for r in by_id.values() if not r.passed] == [failed]


def test_report_json_round_trip():
    reports = run_suite(0, "default")
    payload = json.loads(json.dumps([r.to_json_dict() for r in reports]))
    assert len(payload) == len(EXPECTED_IDENTITY_IDS)
    for item in payload:
        assert set(item) == {"id", "points", "residuals", "max_residual",
                             "tolerance", "passed", "notes"}
        assert item["passed"] == (item["max_residual"] <= item["tolerance"])
