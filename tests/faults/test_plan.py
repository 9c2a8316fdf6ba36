"""Fault-plan parsing, validation, and budget accounting."""

import json

import pytest

from repro.faults import (
    FAULT_KINDS,
    FaultPlan,
    FaultPlanError,
    FaultRule,
    default_chaos_plan,
    load_plan,
)


class TestRuleValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown fault kind"):
            FaultRule(site="sim.kernel", kind="meteor").validate()

    def test_probability_out_of_range(self):
        with pytest.raises(FaultPlanError, match="probability"):
            FaultRule(site="sim.kernel", kind="launch", p=1.5).validate()

    def test_negative_max_fires(self):
        with pytest.raises(FaultPlanError, match="max_fires"):
            FaultRule(site="s", kind="launch", max_fires=-1).validate()

    def test_negative_delay(self):
        with pytest.raises(FaultPlanError, match="delay_s"):
            FaultRule(site="s", kind="delay", delay_s=-0.1).validate()

    def test_empty_site(self):
        with pytest.raises(FaultPlanError, match="site"):
            FaultRule(site="", kind="launch").validate()

    def test_all_kinds_accepted(self):
        for kind in FAULT_KINDS:
            FaultRule(site="s", kind=kind, p=0.5).validate()


class TestJsonRoundTrip:
    def test_rule_round_trip(self):
        rule = FaultRule(
            site="sim.*", kind="timeout", p=0.25, at=(0, 3), max_fires=2,
            delay_s=0.5,
        )
        assert FaultRule.from_json(rule.to_json()) == rule

    def test_plan_round_trip(self):
        plan = FaultPlan(
            seed=7,
            rules=(FaultRule(site="sim.kernel", kind="launch", p=0.1),),
            retries=4,
            backoff_s=0.01,
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_unknown_rule_field_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown fault rule field"):
            FaultRule.from_json({"site": "s", "kind": "launch", "prob": 0.5})

    def test_unknown_plan_field_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown fault plan field"):
            FaultPlan.from_json({"seeed": 1, "rules": []})

    def test_rule_missing_site(self):
        with pytest.raises(FaultPlanError):
            FaultRule.from_json({"kind": "launch"})

    def test_plan_rules_must_be_list(self):
        with pytest.raises(FaultPlanError, match="list"):
            FaultPlan.from_json({"rules": {"site": "s"}})

    def test_non_dict_plan(self):
        with pytest.raises(FaultPlanError, match="object"):
            FaultPlan.from_json([1, 2])


class TestLoadPlan:
    def test_inline_json(self):
        plan = load_plan('{"seed": 3, "rules": []}')
        assert plan.seed == 3 and plan.rules == ()

    def test_from_file(self, tmp_path):
        p = tmp_path / "plan.json"
        p.write_text(json.dumps(
            {"rules": [{"site": "sim.kernel", "kind": "launch", "p": 0.5}]}
        ))
        plan = load_plan(str(p))
        assert plan.rules[0].kind == "launch"

    def test_missing_file(self, tmp_path):
        with pytest.raises(FaultPlanError, match="cannot read"):
            load_plan(str(tmp_path / "nope.json"))

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{oops")
        with pytest.raises(FaultPlanError, match="not a fault plan"):
            load_plan(str(p))



class TestBudgets:
    def test_max_total_fires_bounded(self):
        plan = default_chaos_plan()
        bound = plan.max_total_fires()
        assert bound is not None
        assert plan.retries > bound  # recoverable by construction

    def test_max_total_fires_unbounded(self):
        plan = FaultPlan(rules=(
            FaultRule(site="s", kind="launch", p=0.1),  # no max_fires
        ))
        assert plan.max_total_fires() is None

    def test_at_only_rule_is_bounded(self):
        plan = FaultPlan(rules=(
            FaultRule(site="s", kind="launch", at=(0, 4)),
        ))
        assert plan.max_total_fires() == 2

    def test_reseeded(self):
        plan = default_chaos_plan(seed=1)
        assert plan.reseeded(42).seed == 42
        assert plan.reseeded(42).rules == plan.rules
