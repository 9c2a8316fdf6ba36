"""The IR validator must accept well-formed programs and pinpoint broken ones."""

import pytest

from repro import config
from repro.check import ValidationError
from repro.check.validate import validate
from repro.compiler import compile_program
from repro.flatten import ThresholdRegistry
from repro.ir import source as S
from repro.ir import target as T
from repro.ir.builder import Program, f32, if_, lam, map_, v
from repro.ir.types import F32, I64, array_of
from repro.sizes import SizeVar


def _simple_env():
    n = SizeVar("n")
    return {"xs": array_of(F32, n)}


def test_accepts_wellformed():
    env = _simple_env()
    body = map_(lam(lambda x: x * x), v("xs"))
    (t,) = validate(body, env, stage="t")
    assert t == array_of(F32, SizeVar("n"))


def test_rejects_unbound_variable():
    with pytest.raises(ValidationError) as ei:
        validate(v("nope"), _simple_env(), stage="t")
    assert ei.value.invariant == "scoping"
    assert "nope" in str(ei.value)


def test_scope_error_reports_path():
    body = map_(lam(lambda x: x + v("ghost")), v("xs"))
    with pytest.raises(ValidationError) as ei:
        validate(body, _simple_env())
    assert "map.lam" in "/".join(ei.value.path)


def test_rejects_type_error():
    body = S.BinOp("+", v("xs"), f32(1.0))  # array + scalar is ill-typed
    with pytest.raises(ValidationError) as ei:
        validate(body, _simple_env())
    assert ei.value.invariant == "typing"


def test_rejects_parcmp_outside_condition():
    bad = S.Let(("c",), T.ParCmp(SizeVar("n"), "t0"), if_(v("c"), f32(1.0), f32(2.0)))
    with pytest.raises(ValidationError) as ei:
        validate(bad, {})
    assert ei.value.invariant == "guard-position"


def test_rejects_duplicate_guard():
    guard = lambda: T.ParCmp(SizeVar("n"), "t0")  # noqa: E731
    bad = if_(guard(), if_(guard(), f32(1.0), f32(2.0)), f32(3.0))
    with pytest.raises(ValidationError) as ei:
        validate(bad, {})
    assert ei.value.invariant == "guard-uniqueness"


def test_rejects_unregistered_threshold():
    body = if_(T.ParCmp(SizeVar("n"), "mystery"), f32(1.0), f32(2.0))
    with pytest.raises(ValidationError) as ei:
        validate(body, {}, registry=ThresholdRegistry())
    assert ei.value.invariant == "guard-registry"


def test_rejects_result_type_change():
    with pytest.raises(ValidationError) as ei:
        validate(f32(1.0), {}, expect=(I64,))
    assert ei.value.invariant == "type-preservation"


def test_compiled_program_validates_clean():
    n, m = SizeVar("n"), SizeVar("m")
    prog = Program(
        "t",
        [("xss", array_of(F32, n, m))],
        map_(lambda row: map_(lam(lambda x: x * x), row), v("xss")),
    )
    cp = compile_program(prog, "incremental")
    cp.check()  # must not raise


def test_set_validation_overrides_env(configure):
    assert not config.Config.from_env({}).validate
    assert config.Config.from_env({"REPRO_VALIDATE": "1"}).validate
    assert config.current().validate  # the suite-wide fixture's setting
    configure(validate=False)
    assert not config.current().validate
