"""Shared fixtures: small store configurations sized for fast tests."""

import pytest
from hypothesis import settings

from repro.store import StoreConfig
from repro.testkit.failpoints import FAILPOINTS

# ``--hypothesis-profile nightly``: the depth the differential-nightly CI
# job runs the batch == scalar property at (15x the default profile's
# examples).  Only tests that do not pin ``max_examples`` follow it.
settings.register_profile("nightly", max_examples=1500)


@pytest.fixture(autouse=True)
def _reset_failpoints():
    """No failpoint arm or trace may leak between tests."""
    yield
    FAILPOINTS.clear()


@pytest.fixture
def tiny_config():
    """A deliberately tiny device so cleaning happens within a few
    hundred writes."""
    return StoreConfig(
        n_segments=16,
        segment_units=8,
        fill_factor=0.6,
        clean_trigger=2,
        clean_batch=2,
    )


@pytest.fixture
def small_config():
    """Small but statistically meaningful device for behavioural tests."""
    return StoreConfig(
        n_segments=64,
        segment_units=16,
        fill_factor=0.75,
        clean_trigger=3,
        clean_batch=4,
    )


@pytest.fixture
def buffered_config():
    """Small device with a user-write sorting buffer enabled."""
    return StoreConfig(
        n_segments=64,
        segment_units=16,
        fill_factor=0.75,
        clean_trigger=3,
        clean_batch=4,
        sort_buffer_segments=2,
    )
