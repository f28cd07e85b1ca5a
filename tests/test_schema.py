"""The field rules shared by the config dataclasses and the manifest parser."""

from __future__ import annotations

from dataclasses import MISSING

import pytest

from repro.core.compiler import SSyncConfig
from repro.core.scheduler import SchedulerConfig
from repro.exceptions import NoiseModelError, SchedulingError
from repro.noise.heating import HeatingParameters
from repro.schema import ruled_fields


@pytest.mark.parametrize("cls", [SchedulerConfig, SSyncConfig, HeatingParameters])
def test_every_default_keeps_its_rule(cls):
    """``check_fields`` skips a field that holds its default, so each default must pass."""
    for name, (field_rule, default) in ruled_fields(cls).items():
        if default is not MISSING:
            field_rule.check(name, default, AssertionError)


@pytest.mark.parametrize(
    ("build", "error", "message"),
    [
        (lambda: SchedulerConfig(decay_delta=float("nan")), SchedulingError, "must be finite"),
        (lambda: SchedulerConfig(lookahead_weight=10**400), SchedulingError, "must be finite"),
        (lambda: SchedulerConfig(decay_reset_interval=0), SchedulingError, "at least 1"),
        (lambda: SSyncConfig(default_mapping="bogus"), SchedulingError, "unknown initial mapping"),
        (lambda: HeatingParameters(k1="x"), NoiseModelError, "k1 must be a number"),
        (lambda: HeatingParameters(k2=float("inf")), NoiseModelError, "must be finite"),
    ],
)
def test_python_callers_meet_the_manifest_rules(build, error, message):
    with pytest.raises(error, match=message):
        build()
