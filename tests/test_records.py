"""The value records (ComputeParams, EvalResult, AsymptoticCoeffs,
ModularForms, QuadratureSpec and IdentityReport) and the import graph of
the CLI."""

import copy
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from barnesg.engine import AsymptoticCoeffs, ComputeParams, EvalResult
from barnesg.errors import CapacityError, DomainError
from barnesg.identities import IdentityReport
from barnesg.kernels import QuadratureSpec
from barnesg.modular import ModularForms

_FIELDS = {
    ComputeParams: ("N", "M", "m_cd"),
    EvalResult: ("log_value", "value", "error_estimate", "params_used",
                 "route"),
    AsymptoticCoeffs: ("a0", "a1", "a2", "b0", "b1", "b2", "tail", "tau",
                       "b0_error"),
    ModularForms: ("C", "D", "a", "b", "a_tilde", "b_tilde", "tau", "m_used",
                   "error_estimate"),
    QuadratureSpec: ("target", "max_level"),
}


def _samples():
    # two value-equal instances of each frozen record, built positionally
    # and by keyword, and one that differs in its last field
    p = ComputeParams(64, 8, 100)
    values = {
        ComputeParams: (64, 8, 100),
        EvalResult: (1 + 2j, 3 - 4j, 1e-16, p, "asymptotic"),
        AsymptoticCoeffs: (1j, 2j, 3j, 4j, 5j, 6j, (7j, 8j), 1 + 1j, 1e-15),
        ModularForms: (1j, 2j, 3j, 4j, 5j, 6j, 1 + 1j, 64, 1e-18),
        QuadratureSpec: (1e-10, 5),
    }
    other_last = {ComputeParams: 101, EvalResult: "product",
                  AsymptoticCoeffs: 0.0, ModularForms: 2e-18,
                  QuadratureSpec: 6}
    for cls, vals in values.items():
        kw = dict(zip(_FIELDS[cls], vals))
        yield (cls, vals, cls(*vals), cls(**kw),
               cls(*vals[:-1], other_last[cls]))


def test_construction_and_defaults():
    for cls, vals, pos, key, _ in _samples():
        for r in (pos, key):
            assert tuple(getattr(r, f) for f in _FIELDS[cls]) == vals
    p = ComputeParams(64)
    assert (p.N, p.M, p.m_cd) == (64, 12, None)
    r = EvalResult(0j, 1 + 0j, 0.0, p)
    assert r.route == "product"
    c = AsymptoticCoeffs(1j, 2j, 3j, 4j, 5j, 6j, (), 1 + 0j)
    assert c.b0_error == 0.0
    s = QuadratureSpec()
    assert (s.target, s.max_level) == (1e-11, 11)


def test_validation_errors():
    cases = [
        (lambda: ComputeParams(0), "N must be positive"),
        (lambda: ComputeParams(N=-3, M=4), "N must be positive"),
        (lambda: ComputeParams(8, M=0), r"M must be in 1\.\.16"),
        (lambda: ComputeParams(8, 17), r"M must be in 1\.\.16"),
        (lambda: ComputeParams(8, 12, 0), "m_cd must be positive"),
        (lambda: QuadratureSpec(target=1e-16), "below 10x unit roundoff"),
        (lambda: QuadratureSpec(target=math.nan), "must be finite"),
        (lambda: QuadratureSpec(target=math.inf), "must be finite"),
        (lambda: QuadratureSpec(1e-10, max_level=0),
         "max_level must be positive"),
    ]
    for build, message in cases:
        with pytest.raises(DomainError, match=message):
            build()
    # past level 16 the finest level would evaluate more than _N_CAP
    # nodes: refused as every length past it is, before any node
    for max_level in (17, 18, 10 ** 6):
        with pytest.raises(CapacityError, match="exceed 1000000 nodes"):
            QuadratureSpec(2.3e-15, max_level)
    # the boundaries themselves are valid
    assert ComputeParams(1, 1, 1).M == 1
    assert ComputeParams(1, 16).M == 16
    assert QuadratureSpec(max_level=1).max_level == 1
    assert QuadratureSpec(max_level=16).max_level == 16


def test_assignment_refused():
    for cls, _, r, _, _ in _samples():
        for f in _FIELDS[cls]:
            before = getattr(r, f)
            with pytest.raises(AttributeError):
                setattr(r, f, None)
            with pytest.raises(AttributeError):
                delattr(r, f)
            assert getattr(r, f) is before
        with pytest.raises(AttributeError):
            r.not_a_field = 1


def test_equality_and_hash_by_value():
    for cls, _, pos, key, other in _samples():
        assert pos == key and not pos != key
        assert hash(pos) == hash(key)
        assert pos != other
        assert len({pos, key, other}) == 2
        assert pos != tuple(getattr(pos, f) for f in _FIELDS[cls])


def test_repr_names_the_fields():
    assert repr(ComputeParams(64)) == "ComputeParams(N=64, M=12, m_cd=None)"
    for cls, _, r, _, _ in _samples():
        text = repr(r)
        assert text.startswith(cls.__name__ + "(")
        for f in _FIELDS[cls]:
            assert f"{f}={getattr(r, f)!r}" in text


def test_copy_and_pickle_keep_the_value():
    for _, _, r, _, _ in _samples():
        for twin in (copy.copy(r), copy.deepcopy(r),
                     pickle.loads(pickle.dumps(r))):
            assert twin == r and type(twin) is type(r)


def test_deferred_plan_reads_as_the_plan():
    # an automatic result plans on the first read of params_used; each of
    # repr, ==, hash, pickle, copy and to_json_dict, made first or after
    # that read, gives what the record built with choose_params' plan gives
    from barnesg.engine import choose_params, log_double_gamma
    z, tau = 1.5 + 0.5j, 2.0
    r = log_double_gamma(z, tau)
    eager = EvalResult(r.log_value, r.value, r.error_estimate,
                       choose_params(z, tau), r.route)
    checks = (
        lambda r: repr(r) == repr(eager),
        lambda r: r == eager and eager == r,
        lambda r: hash(r) == hash(eager),
        lambda r: repr(pickle.loads(pickle.dumps(r))) == repr(eager),
        lambda r: repr(copy.copy(r)) == repr(eager),
        lambda r: r.to_json_dict() == eager.to_json_dict(),
    )
    for check in checks:
        for read_first in (False, True):
            r = log_double_gamma(z, tau)
            assert type(r._plan) is tuple   # deferred
            if read_first:
                assert r.params_used == eager.params_used
            assert check(r)
            assert r.params_used == eager.params_used
    with pytest.raises(AttributeError):
        r.params_used = eager.params_used


def test_identity_report_is_mutable_with_fresh_notes():
    a = IdentityReport("x", [(1, 2)], [0.5], 1.0)
    b = IdentityReport("x", [(1, 2)], [0.5], 1.0)
    assert a.notes == [] and a.notes is not b.notes
    a.notes.append("seen")
    assert b.notes == []
    assert a != b
    b.notes.append("seen")
    assert a == b
    a.tolerance = 0.25
    assert not a.passed and b.passed
    assert "identity_id='x'" in repr(a)
    with pytest.raises(TypeError):
        hash(a)


def test_cli_import_graph():
    # the CLI loads neither dataclasses nor the inspect machinery behind it;
    # the benchmark's tracer binds names in polys and identities right
    # after this import, so both must already be loaded
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import sys, barnesg.cli; "
            "print(' '.join(sorted(m for m in sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src),
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    for name in ("dataclasses", "inspect", "ast", "dis"):
        assert name not in loaded, name
    for name in ("barnesg.polys", "barnesg.identities"):
        assert name in loaded, name


def test_package_exports():
    # __all__ and the names bound in barnesg agree both ways, so a name
    # removed from a module cannot stay listed, or imported, in __init__
    import types

    import barnesg
    assert len(set(barnesg.__all__)) == len(barnesg.__all__)
    for name in barnesg.__all__:
        assert hasattr(barnesg, name), name
    public = {name for name, value in vars(barnesg).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)}
    assert public <= set(barnesg.__all__), public - set(barnesg.__all__)
