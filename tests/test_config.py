"""SimConfig behaviour."""

import numpy as np
import pytest

from repro.config import DEFAULT_CONFIG, ExperimentScale, SimConfig
from repro.errors import ConfigError


def test_default_config_is_valid():
    assert DEFAULT_CONFIG.batch_size == 64
    assert 0 < DEFAULT_CONFIG.scale <= 1


def test_rng_streams_are_deterministic():
    a = SimConfig(seed=7).rng("x").integers(0, 1 << 30, 10)
    b = SimConfig(seed=7).rng("x").integers(0, 1 << 30, 10)
    assert np.array_equal(a, b)


def test_rng_streams_differ_by_name():
    a = SimConfig(seed=7).rng("x").integers(0, 1 << 30, 10)
    b = SimConfig(seed=7).rng("y").integers(0, 1 << 30, 10)
    assert not np.array_equal(a, b)


def test_rng_streams_differ_by_seed():
    a = SimConfig(seed=7).rng("x").integers(0, 1 << 30, 10)
    b = SimConfig(seed=8).rng("x").integers(0, 1 << 30, 10)
    assert not np.array_equal(a, b)


def test_with_returns_modified_copy():
    base = SimConfig(seed=1)
    other = base.with_(batch_size=16)
    assert other.batch_size == 16
    assert base.batch_size == 64
    assert other.seed == base.seed


@pytest.mark.parametrize(
    "kwargs",
    [
        {"batch_size": 0},
        {"num_batches": 0},
        {"scale": 0.0},
        {"scale": 1.5},
    ],
)
def test_invalid_configs_rejected(kwargs):
    with pytest.raises(ConfigError):
        SimConfig(**kwargs)


def test_experiment_scale_applies_overrides():
    scale = ExperimentScale(scale=0.1, num_batches=3, batch_size=8)
    applied = scale.apply(SimConfig())
    assert applied.scale == 0.1
    assert applied.num_batches == 3
    assert applied.batch_size == 8


def test_engine_validation_message():
    # One memory engine: the name is a class constant, not a field, and
    # the compatibility check accepts only it.
    from repro.mem.hierarchy import set_default_engine

    assert SimConfig().engine == "fast"
    set_default_engine(SimConfig.engine)
    with pytest.raises(ConfigError, match=r"engine must be 'fast', got 'turbo'"):
        set_default_engine("turbo")
