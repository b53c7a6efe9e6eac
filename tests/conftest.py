from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings

from cohitlab.cohit import EngineConfig

settings.register_profile(
    "ci",
    deadline=None,
    derandomize=True,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture
def config() -> EngineConfig:
    """The default engine config; the engine keeps nothing on disk."""
    return EngineConfig()
