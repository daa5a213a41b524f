"""ServiceConfig validation: bad knobs are a ConfigError, not a hang."""

import pytest

from repro.errors import ConfigError
from repro.service.config import ServiceConfig


@pytest.mark.parametrize(
    "field", ["poll_tick", "heartbeat_interval", "stream_interval"]
)
@pytest.mark.parametrize("value", [0.0, -0.01, float("nan")])
def test_timing_fields_must_be_positive(field, value):
    # A zero poll_tick would spin the coordinator's health timer.
    with pytest.raises(ConfigError, match=field):
        ServiceConfig(**{field: value})

