"""Unit tests for FaultSpec / FaultPlan: validation, targeting, JSON."""

import pytest

from repro.faults import FAULT_KINDS, FaultPlan, FaultSpec


class TestFaultSpecValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(kind="meteor_strike")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"after": -1},
            {"every": 0},
            {"count": -2},
        ],
    )
    def test_bad_ordinals_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FaultSpec(kind="kernel_crash", **kwargs)

    def test_hang_needs_positive_duration(self):
        with pytest.raises(ValueError, match="duration"):
            FaultSpec(kind="device_hang", duration=0.0)
        with pytest.raises(ValueError, match=">= 0"):
            FaultSpec(kind="device_hang", at=-1.0, duration=1e-3)

    @pytest.mark.parametrize(
        "kind, kwargs, match",
        [
            ("device_hang", {"duration": float("nan")}, "duration"),
            ("device_hang", {"at": float("nan"), "duration": 1e-3}, ">= 0"),
            ("device_crash", {"duration": -1e-3}, "reset latency"),
            ("device_crash", {"duration": float("nan")}, "reset latency"),
            ("device_crash", {"at": -1.0}, ">= 0"),
            ("device_crash", {"at": float("nan")}, ">= 0"),
        ],
    )
    def test_bad_device_fault_times_rejected(self, kind, kwargs, match):
        with pytest.raises(ValueError, match=match):
            FaultSpec(kind=kind, **kwargs)

    def test_all_kinds_constructible(self):
        for kind in FAULT_KINDS:
            duration = 1e-3 if kind == "device_hang" else 0.0
            assert FaultSpec(kind=kind, duration=duration).kind == kind


class TestFaultSpecTargeting:
    def test_none_client_matches_everything(self):
        spec = FaultSpec(kind="kernel_crash")
        assert spec.matches("anything")
        assert spec.matches(("tuples", "too"))

    def test_matches_client_batch_convention(self):
        spec = FaultSpec(kind="kernel_crash", client_id="c0")
        assert spec.matches("c0/b3")
        assert spec.matches("c0/b0r2")
        assert not spec.matches("c10/b3")

    def test_matches_make_job_counter_convention(self):
        spec = FaultSpec(kind="oom", client_id="c0")
        assert spec.matches("c0#1")
        assert not spec.matches("c1#0")

    def test_matches_whole_id(self):
        spec = FaultSpec(kind="kernel_crash", client_id="solo-job")
        assert spec.matches("solo-job")
        assert not spec.matches("solo-job-2")


class TestFaultPlan:
    def test_only_specs_accepted(self):
        with pytest.raises(TypeError):
            FaultPlan(faults=("not a spec",))

    def test_with_fault_is_persistent(self):
        empty = FaultPlan()
        spec = FaultSpec(kind="kernel_crash", client_id="c0")
        grown = empty.with_fault(spec)
        assert len(empty) == 0
        assert list(grown) == [spec]

    def test_of_kind_filters(self):
        plan = FaultPlan(
            faults=(
                FaultSpec(kind="kernel_crash"),
                FaultSpec(kind="oom"),
                FaultSpec(kind="device_hang", at=0.1, duration=1e-3),
            )
        )
        assert len(plan.of_kind("kernel_crash")) == 1
        assert len(plan.of_kind("device_hang")) == 1

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown FaultSpec fields"):
            FaultPlan.from_dict(
                {"faults": [{"kind": "oom", "blast_radius": 3}]}
            )

    def test_describe_mentions_every_fault(self):
        plan = FaultPlan(
            faults=(
                FaultSpec(kind="kernel_crash", client_id="c1", count=0),
                FaultSpec(kind="device_hang", at=0.25, duration=5e-3),
            )
        )
        text = plan.describe()
        assert "kernel_crash on c1" in text
        assert "unlimited" in text
        assert "device_hang at t=0.2500s" in text
        assert FaultPlan().describe() == "(empty fault plan)"

    def test_generate_validates_inputs(self):
        with pytest.raises(ValueError, match="at least one client"):
            FaultPlan.generate(0, client_ids=[])
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan.generate(0, client_ids=["c0"], kinds=["nope"])
        with pytest.raises(ValueError, match="num_faults"):
            FaultPlan.generate(0, client_ids=["c0"], num_faults=0)
