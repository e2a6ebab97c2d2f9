"""Tests for index configuration dataclasses."""

from __future__ import annotations

import pytest

from repro.core.config import CorrelatedIndexConfig, SkewAdaptiveIndexConfig


class TestSkewAdaptiveIndexConfig:
    def test_defaults_valid(self):
        config = SkewAdaptiveIndexConfig()
        assert 0.0 < config.b1 <= 1.0
        assert config.max_paths_per_vector is not None

    def test_invalid_b1(self):
        with pytest.raises(ValueError):
            SkewAdaptiveIndexConfig(b1=0.0)
        with pytest.raises(ValueError):
            SkewAdaptiveIndexConfig(b1=1.5)

    def test_invalid_repetitions(self):
        with pytest.raises(ValueError):
            SkewAdaptiveIndexConfig(repetitions=0)

    def test_invalid_max_depth(self):
        with pytest.raises(ValueError):
            SkewAdaptiveIndexConfig(max_depth=-1)

    def test_invalid_max_paths(self):
        with pytest.raises(ValueError):
            SkewAdaptiveIndexConfig(max_paths_per_vector=0)

    def test_frozen(self):
        config = SkewAdaptiveIndexConfig()
        with pytest.raises(AttributeError):
            config.b1 = 0.9  # type: ignore[misc]


class TestCorrelatedIndexConfig:
    def test_defaults_valid(self):
        config = CorrelatedIndexConfig()
        assert 0.0 < config.alpha <= 1.0
        assert config.acceptance_divisor == 1.3

    def test_acceptance_threshold(self):
        config = CorrelatedIndexConfig(alpha=0.65)
        assert config.acceptance_threshold == pytest.approx(0.65 / 1.3)

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            CorrelatedIndexConfig(alpha=0.0)
        with pytest.raises(ValueError):
            CorrelatedIndexConfig(alpha=1.1)

    def test_invalid_divisor(self):
        with pytest.raises(ValueError):
            CorrelatedIndexConfig(acceptance_divisor=0.5)

    def test_invalid_boost_delta(self):
        with pytest.raises(ValueError):
            CorrelatedIndexConfig(boost_delta=-0.1)

    def test_explicit_boost_delta_allowed(self):
        assert CorrelatedIndexConfig(boost_delta=0.0).boost_delta == 0.0

    def test_invalid_repetitions(self):
        with pytest.raises(ValueError):
            CorrelatedIndexConfig(repetitions=-2)

    def test_invalid_max_depth(self):
        with pytest.raises(ValueError):
            CorrelatedIndexConfig(max_depth=0)

    def test_invalid_max_paths(self):
        with pytest.raises(ValueError):
            CorrelatedIndexConfig(max_paths_per_vector=-5)


class TestPersistenceConfig:
    def test_defaults_are_v3_sharded(self):
        from repro.core.config import PersistenceConfig

        config = PersistenceConfig()
        assert config.format_version == 3
        assert config.shards == 8
        assert config.compress is True
        assert config.validate_postings is True

    def test_invalid_format_version(self):
        from repro.core.config import PersistenceConfig

        with pytest.raises(ValueError, match="format_version"):
            PersistenceConfig(format_version=1)
        with pytest.raises(ValueError, match="format_version"):
            PersistenceConfig(format_version=4)

    def test_invalid_shards_and_io_workers(self):
        from repro.core.config import PersistenceConfig

        with pytest.raises(ValueError, match="shards"):
            PersistenceConfig(shards=0)
        # The shard-file I/O width is derived (min(shards, cpu_count)), not
        # a setting: the removed field is refused outright.
        with pytest.raises(TypeError, match="io_workers"):
            PersistenceConfig(io_workers=2)

    def test_v2_downgrade_config_valid(self):
        from repro.core.config import PersistenceConfig

        config = PersistenceConfig(format_version=2, compress=False)
        assert config.format_version == 2
