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
def config(tmp_path) -> EngineConfig:
    """An engine config whose disk cache stays inside the test tmp dir."""
    return EngineConfig(cache_dir=tmp_path / "cache")


@pytest.fixture(scope="session")
def warm_config(tmp_path_factory) -> EngineConfig:
    """One disk cache shared by the whole session, empty when it starts."""
    return EngineConfig(cache_dir=tmp_path_factory.mktemp("warm_cache"))
