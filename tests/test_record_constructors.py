"""The hand-written constructors of the per-round value objects.

``RevealEvent`` and ``RoundRecord`` are built once per reveal and once
per round, so they replace the generated frozen-dataclass ``__init__``
with a cheaper one.  These tests keep the two in step with the declared
fields and check that the objects still behave as frozen dataclasses.
"""

import inspect
import pickle
from dataclasses import FrozenInstanceError, MISSING, asdict, fields, replace

import pytest

from repro.sim.runloop import RoundRecord
from repro.trees.partial import RevealEvent

SAMPLES = {
    RevealEvent: dict(node=3, port=1, child=7, child_degree=2,
                      node_closed=True, child_open=True, by_robot=4),
    RoundRecord: dict(t=5, billed_before=4, billed=5, moves={0: ("stay",)},
                      struck=set(), movable={0}, before=[0], progressed=False,
                      events=[]),
}


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda c: c.__name__)
def test_init_matches_fields(cls):
    params = list(inspect.signature(cls.__init__).parameters.values())[1:]
    declared = fields(cls)
    assert [p.name for p in params] == [f.name for f in declared]
    for param, fld in zip(params, declared):
        default = inspect.Parameter.empty if fld.default is MISSING else fld.default
        assert param.default == default, fld.name


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda c: c.__name__)
def test_still_a_frozen_dataclass(cls):
    values = SAMPLES[cls]
    obj = cls(**values)
    assert asdict(obj) == values
    assert obj == cls(*values.values())
    assert replace(obj) == obj
    with pytest.raises(FrozenInstanceError):
        obj.__setattr__(next(iter(values)), 0)


def test_reveal_event_defaults_hash_and_pickle():
    event = RevealEvent(1, 2, 3, 4, False, True)
    assert event.by_robot == -1
    assert hash(event) == hash(RevealEvent(1, 2, 3, 4, False, True, -1))
    assert pickle.loads(pickle.dumps(event)) == event
