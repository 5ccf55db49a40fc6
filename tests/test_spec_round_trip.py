"""Every config value goes through one serialiser (``repro.spec``, DESIGN.md §25).

One instance of each of the ten config classes must survive JSON to an
equal value, ``replace`` one field and nothing else, and refuse a field it
does not have by name.  The committed ``tests/golden/specs.json`` pins the
stored form: every preset and corpus block still writes what it wrote
before the classes shared one serialiser, minus the five knobs that became
constants — and what was stored then, minus those keys, loads to an equal
value now.
"""

import json

import pytest

from repro.cluster import AutoscalerConfig
from repro.core.config import BatchingConfig, CellTypeConfig
from repro.faults import RetryPolicy, SLAConfig
from repro.gpu.energy import EnergySpec
from repro.gpu.memory import MemorySpec
from repro.registry import presets
from tests.golden import SPECS_PATH, spec_blocks

# (instance, a field, a new value for it — already in normalised form)
CASES = [
    (CellTypeConfig((1, 4, 16), priority=2), "priority", 3),
    (
        BatchingConfig.with_max_batch(
            64, per_cell_max={"decoder": 32}, per_cell_priority={"decoder": 1},
            max_tasks_to_submit=3,
        ),
        "max_tasks_to_submit", 4,
    ),
    (RetryPolicy(max_retries=2, backoff_base=1e-3), "max_retries", 5),
    (
        SLAConfig(
            default_deadline=40e-3, max_queue_delay=2e-3,
            retry=RetryPolicy(max_retries=2), max_hold=1e-3,
        ),
        "max_hold", 2e-3,
    ),
    (
        AutoscalerConfig(
            min_replicas=2, max_replicas=4, high_watermark=12.0, low_watermark=1.0
        ),
        "cooldown", 1e-3,
    ),
    (
        MemorySpec(capacity=1 << 20, weights={"lstm": 4096}, admission_free_bytes=8192),
        "capacity", 1 << 21,
    ),
    (
        EnergySpec(idle_watts=30.0, frequencies=(0.6, 1.0), governor="headroom"),
        "governor", "race_to_idle",
    ),
    (presets.seq2seq_dynamic_spec(capacity_requests=24), "num_gpus", 4),
    (presets.lstm_hetero_cluster_spec(), "seed", 7),
    (presets.lstm_serve_spec(num_replicas=2), "port", 0),
]

#: The settable values that became module constants; the stored form of
#: the parent carried them wherever they occur.
DELETED_KEYS = ("kick_margin", "backoff_factor", "drift_tolerance", "power_exponent",
                "governor_params")


@pytest.mark.parametrize(
    "spec, field, value", CASES, ids=[type(case[0]).__name__ for case in CASES]
)
def test_round_trip_replace_and_unknown_field(spec, field, value):
    cls = type(spec)
    assert cls.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    before = spec.to_dict()
    changed = spec.replace(**{field: value})
    after = changed.to_dict()
    assert getattr(changed, field) == value
    assert {key for key in before if before[key] != after[key]} == {field}
    assert spec.to_dict() == before  # a copy: the original is untouched

    with pytest.raises(ValueError, match=f"{cls.__name__}.*no_such_field"):
        cls.from_dict({**before, "no_such_field": 1})
    with pytest.raises(ValueError, match=f"{cls.__name__}.*no_such_field"):
        spec.replace(no_such_field=1)


def _without_deleted(value):
    if isinstance(value, dict):
        return {k: _without_deleted(v) for k, v in value.items() if k not in DELETED_KEYS}
    if isinstance(value, list):
        return [_without_deleted(v) for v in value]
    return value


def _count_deleted(value) -> int:
    if isinstance(value, dict):
        return sum(k in DELETED_KEYS for k in value) + sum(map(_count_deleted, value.values()))
    if isinstance(value, list):
        return sum(map(_count_deleted, value))
    return 0


STORED = json.loads(SPECS_PATH.read_text())
BLOCKS = spec_blocks()


def test_the_fixture_covers_every_block_and_carries_the_deleted_keys():
    assert sorted(STORED) == sorted(BLOCKS)
    assert _count_deleted(STORED) > 0


@pytest.mark.parametrize("name", sorted(BLOCKS))
def test_stored_form_is_unchanged_but_for_the_deleted_keys(name):
    spec, stored = BLOCKS[name], _without_deleted(STORED[name])
    assert spec.to_dict() == stored
    assert type(spec).from_dict(stored) == spec
