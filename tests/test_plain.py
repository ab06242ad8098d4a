"""The field-driven spec codec (:mod:`repro.plain`)."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import pytest

from repro.plain import PlainData
from repro.scenarios import ScenarioSpec, get_scenario
from repro.sweeps import RunSpec, SweepSpec, get_sweep
from repro.traffic.spec import ServiceSpec


@dataclass
class _Inner(PlainData):
    level: float = 1.0


@dataclass
class _Outer(PlainData):
    name: str
    count: int = 1
    limit: Optional[float] = None
    shape: Tuple[int, ...] = (1, 2)
    weights: Sequence[float] = (0.5,)
    inners: List[_Inner] = field(default_factory=list)
    inner: Optional[_Inner] = None
    params: Dict[str, object] = field(default_factory=dict)


class TestCodec:
    def test_round_trips_through_json(self):
        value = _Outer(
            name="a", count=3, limit=2.5, shape=(4, 5), weights=[0.1, 0.9],
            inners=[_Inner(0.5)], inner=_Inner(2.0), params={"k": [1, 2]},
        )
        data = json.loads(json.dumps(value.to_dict()))
        assert data["shape"] == [4, 5] and data["inner"] == {"level": 2.0}
        assert _Outer.from_dict(data) == value

    def test_coerces_by_type_hint_and_fills_defaults(self):
        value = _Outer.from_dict({"name": 7, "count": "4", "shape": [3], "inners": [{}]})
        assert value == _Outer(name="7", count=4, shape=(3,), inners=[_Inner()])
        assert isinstance(value.shape, tuple) and value.limit is None

    def test_dict_fields_are_copied_with_values_as_given(self):
        params = {"nested": {"x": "1"}}
        value = _Outer.from_dict({"name": "a", "params": params})
        assert value.params == params and value.params is not params

    def test_to_dict_copies_containers(self):
        value = _Outer(name="a", params={"nested": {"x": 1}})
        value.to_dict()["params"]["nested"]["x"] = 2
        assert value.params == {"nested": {"x": 1}}


@pytest.mark.parametrize(
    "cls,data",
    [
        (_Outer, {"name": "a"}),
        (ScenarioSpec, get_scenario("steady-churn").to_dict()),
        (RunSpec, get_sweep("smoke-2x2").expand()[0].to_dict()),
        (SweepSpec, get_sweep("smoke-2x2").to_dict()),
    ],
    ids=["codec", "ScenarioSpec", "RunSpec", "SweepSpec"],
)
def test_unknown_keys_are_rejected_by_name(cls, data):
    # A mistyped key used to be dropped silently and the default run instead.
    with pytest.raises(ValueError, match="durration"):
        cls.from_dict({**data, "durration": 5.0})


def test_service_spec_always_carries_autoscaling():
    assert ServiceSpec(name="web").to_dict()["autoscaling"] is None
