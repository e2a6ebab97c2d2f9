"""Tests for saving and loading built indexes (formats v3, v2 and legacy v1).

The single-file ``.npz`` container tests pin ``format_version=2`` explicitly
(v2 stays fully writable as the downgrade path); everything exercising the
default ``save_index`` path now covers the sharded v3 directory layout, and
``TestV3Format`` / ``TestV3Corruption`` / ``TestMmapMode`` cover the
format-specific behaviour.
"""

from __future__ import annotations

import hashlib
import json
import zipfile

import numpy as np
import pytest

from repro.baselines.chosen_path import ChosenPathIndex
from repro.core.config import (
    CorrelatedIndexConfig,
    PersistenceConfig,
    SkewAdaptiveIndexConfig,
)
from repro.core.correlated_index import CorrelatedIndex
from repro.core.inverted_index import STATE_ARRAY_NAMES
from repro.core.mmap_store import route_keys
from repro.core.paths import paths_to_csr
from repro.core.serialization import (
    FORMAT_VERSION,
    LEGACY_JSON_VERSION,
    V2_FORMAT_VERSION,
    _save_legacy_v1,
    convert_index_file,
    describe_index_file,
    load_index,
    save_index,
)
from repro.core.skewed_index import SkewAdaptiveIndex
from repro.data.distributions import ItemDistribution
from repro.hashing.pairwise import fold_path

#: Explicit v2 configuration for the single-file container tests.
V2 = PersistenceConfig(format_version=2)


@pytest.fixture()
def adversarial_index(skewed_distribution, skewed_dataset):
    index = SkewAdaptiveIndex(
        skewed_distribution, config=SkewAdaptiveIndexConfig(b1=0.5, repetitions=4, seed=31)
    )
    index.build(skewed_dataset[:80])
    return index


@pytest.fixture()
def correlated_index(skewed_distribution, skewed_dataset):
    index = CorrelatedIndex(
        skewed_distribution, config=CorrelatedIndexConfig(alpha=0.7, repetitions=4, seed=32)
    )
    index.build(skewed_dataset[:80])
    return index


@pytest.fixture()
def chosen_path_index(skewed_distribution, skewed_dataset):
    index = ChosenPathIndex(
        dimension=skewed_distribution.dimension, b1=0.6, b2=0.3, repetitions=4, seed=33
    )
    index.build(skewed_dataset[:80])
    return index


class TestSaveValidation:
    def test_unbuilt_index_rejected(self, skewed_distribution, tmp_path):
        index = SkewAdaptiveIndex(skewed_distribution, b1=0.5)
        with pytest.raises(ValueError):
            save_index(index, tmp_path / "index.bin")

    def test_wrong_type_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            save_index(object(), tmp_path / "index.bin")  # type: ignore[arg-type]

    def test_v2_file_is_binary_container_with_version(self, adversarial_index, tmp_path):
        path = tmp_path / "index.bin"
        save_index(adversarial_index, path, config=V2)
        assert zipfile.is_zipfile(path)
        with np.load(path, allow_pickle=False) as container:
            meta = json.loads(bytes(container["meta"]).decode("utf-8"))
        assert meta["format_version"] == V2_FORMAT_VERSION
        assert meta["config"]["kind"] == "skew_adaptive"
        assert set(meta["build_stats"]) == set(
            adversarial_index.build_stats.to_dict()
        )

    def test_no_pickled_objects_in_file(self, adversarial_index, tmp_path):
        """The v2 container must stay loadable with allow_pickle=False."""
        path = tmp_path / "index.bin"
        save_index(adversarial_index, path, config=V2)
        with np.load(path, allow_pickle=False) as container:
            for name in container.files:
                assert container[name].dtype != object

    def test_uncompressed_save_supported(self, adversarial_index, tmp_path):
        compressed = tmp_path / "small.bin"
        plain = tmp_path / "large.bin"
        save_index(adversarial_index, compressed, config=V2)
        save_index(
            adversarial_index,
            plain,
            config=PersistenceConfig(format_version=2, compress=False),
        )
        assert plain.stat().st_size > compressed.stat().st_size
        assert load_index(plain).num_indexed == adversarial_index.num_indexed

    def test_exact_output_path_is_used(self, adversarial_index, tmp_path):
        """numpy must not silently append an .npz suffix (v2 path)."""
        path = tmp_path / "index.bin"
        save_index(adversarial_index, path, config=V2)
        assert path.exists()
        assert not (tmp_path / "index.bin.npz").exists()


class TestRoundTrip:
    def test_adversarial_round_trip_identical_queries(
        self, adversarial_index, skewed_dataset, tmp_path
    ):
        path = tmp_path / "adversarial.bin"
        save_index(adversarial_index, path)
        loaded = load_index(path)
        assert isinstance(loaded, SkewAdaptiveIndex)
        assert loaded.num_indexed == adversarial_index.num_indexed
        assert loaded.total_stored_filters == adversarial_index.total_stored_filters
        for query_id in range(25):
            original_result, original_stats = adversarial_index.query(skewed_dataset[query_id])
            loaded_result, loaded_stats = loaded.query(skewed_dataset[query_id])
            assert original_result == loaded_result
            assert original_stats.to_dict() == loaded_stats.to_dict()

    def test_correlated_round_trip_identical_queries(
        self, correlated_index, skewed_distribution, skewed_dataset, tmp_path
    ):
        path = tmp_path / "correlated.bin"
        save_index(correlated_index, path)
        loaded = load_index(path)
        assert isinstance(loaded, CorrelatedIndex)
        rng = np.random.default_rng(3)
        for target in range(15):
            query = skewed_distribution.sample_correlated(skewed_dataset[target], 0.7, rng)
            assert correlated_index.query(query)[0] == loaded.query(query)[0]

    def test_chosen_path_round_trip_identical_queries(
        self, chosen_path_index, skewed_dataset, tmp_path
    ):
        path = tmp_path / "chosen_path.bin"
        save_index(chosen_path_index, path)
        loaded = load_index(path)
        assert isinstance(loaded, ChosenPathIndex)
        assert loaded.rho == chosen_path_index.rho
        for query_id in range(20):
            assert (
                chosen_path_index.query(skewed_dataset[query_id])[0]
                == loaded.query(skewed_dataset[query_id])[0]
            )

    def test_batch_queries_identical_after_load(
        self, adversarial_index, skewed_dataset, tmp_path
    ):
        path = tmp_path / "index.bin"
        save_index(adversarial_index, path)
        loaded = load_index(path)
        queries = skewed_dataset[:40]
        original_results, original_stats = adversarial_index.query_batch(queries)
        loaded_results, loaded_stats = loaded.query_batch(queries)
        assert original_results == loaded_results
        assert [s.to_dict() for s in original_stats.per_query] == [
            s.to_dict() for s in loaded_stats.per_query
        ]

    def test_round_trip_preserves_vectors(self, adversarial_index, tmp_path):
        path = tmp_path / "index.bin"
        save_index(adversarial_index, path)
        loaded = load_index(path)
        for vector_id in range(adversarial_index.num_indexed):
            assert loaded.get_vector(vector_id) == adversarial_index.get_vector(vector_id)

    def test_round_trip_preserves_full_build_stats(self, adversarial_index, tmp_path):
        """Every BuildStats field survives, including the extended ones
        (build_seconds, generation_batches) that format v1 silently dropped."""
        path = tmp_path / "index.bin"
        save_index(adversarial_index, path)
        loaded = load_index(path)
        original = adversarial_index.build_stats.to_dict()
        restored = loaded.build_stats.to_dict()
        assert restored == original
        assert restored["build_seconds"] > 0.0
        assert restored["generation_batches"] > 0

    def test_round_trip_preserves_removals(self, adversarial_index, skewed_dataset, tmp_path):
        adversarial_index.remove(2)
        path = tmp_path / "index.bin"
        save_index(adversarial_index, path)
        loaded = load_index(path)
        result, _stats = loaded.query(skewed_dataset[2], mode="best")
        assert result != 2

    def test_round_trip_after_insert(self, adversarial_index, skewed_dataset, tmp_path):
        """Postings added after the initial build (pending overlay) are saved."""
        inserted_id = adversarial_index.insert(skewed_dataset[90])
        path = tmp_path / "index.bin"
        save_index(adversarial_index, path)
        loaded = load_index(path)
        assert loaded.get_vector(inserted_id) == skewed_dataset[90]
        assert (
            loaded.query(skewed_dataset[90], mode="best")[0]
            == adversarial_index.query(skewed_dataset[90], mode="best")[0]
        )

    def test_loaded_index_supports_insert(self, adversarial_index, skewed_dataset, tmp_path):
        path = tmp_path / "index.bin"
        save_index(adversarial_index, path)
        loaded = load_index(path)
        new_id = loaded.insert(skewed_dataset[90])
        assert loaded.get_vector(new_id) == skewed_dataset[90]

    def test_empty_dataset_round_trip(self, skewed_distribution, tmp_path):
        index = SkewAdaptiveIndex(
            skewed_distribution, config=SkewAdaptiveIndexConfig(b1=0.5, repetitions=3)
        )
        index.build([])
        path = tmp_path / "empty.bin"
        save_index(index, path)
        loaded = load_index(path)
        assert loaded.num_indexed == 0
        assert loaded.query({1, 2, 3})[0] is None


class TestLoadValidation:
    def test_wrong_version_rejected(self, adversarial_index, tmp_path):
        path = tmp_path / "index.bin"
        save_index(adversarial_index, path, config=V2)
        with np.load(path, allow_pickle=False) as container:
            arrays = {name: container[name] for name in container.files}
        meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
        meta["format_version"] = 999
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        with open(path, "wb") as handle:
            np.savez(handle, **arrays)
        with pytest.raises(ValueError, match="format version"):
            load_index(path)

    def test_unknown_kind_rejected(self, adversarial_index, tmp_path):
        path = tmp_path / "index.bin"
        save_index(adversarial_index, path, config=V2)
        with np.load(path, allow_pickle=False) as container:
            arrays = {name: container[name] for name in container.files}
        meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
        meta["config"]["kind"] = "mystery"
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        with open(path, "wb") as handle:
            np.savez(handle, **arrays)
        with pytest.raises(ValueError, match="kind"):
            load_index(path)

    def test_unknown_build_stats_field_rejected(self, adversarial_index, tmp_path):
        """A file claiming BuildStats fields this version does not know must
        fail loudly instead of silently dropping them."""
        path = tmp_path / "index.bin"
        save_index(adversarial_index, path, config=V2)
        with np.load(path, allow_pickle=False) as container:
            arrays = {name: container[name] for name in container.files}
        meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
        meta["build_stats"]["from_the_future"] = 42
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        with open(path, "wb") as handle:
            np.savez(handle, **arrays)
        with pytest.raises(ValueError, match="from_the_future"):
            load_index(path)

    def test_truncated_file_rejected(self, adversarial_index, tmp_path):
        """Truncation behind a valid zip magic must still surface as the
        documented ValueError (catchable by the CLI), not BadZipFile."""
        path = tmp_path / "index.bin"
        save_index(adversarial_index, path, config=V2)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ValueError, match="not a valid index file"):
            load_index(path)

    def test_garbage_file_rejected(self, tmp_path):
        path = tmp_path / "garbage.bin"
        path.write_bytes(b"\x00\x01\x02definitely not an index\xff" * 10)
        with pytest.raises(ValueError, match="not a recognised index file"):
            load_index(path)

    def test_out_of_range_posting_ids_rejected(self, adversarial_index, tmp_path):
        """Corrupted posting ids referencing missing vectors fail the
        validate_postings integrity check."""
        path = tmp_path / "index.bin"
        save_index(adversarial_index, path, config=V2)
        with np.load(path, allow_pickle=False) as container:
            arrays = {name: container[name] for name in container.files}
        ids = arrays["rep0000_posting_ids"].astype(np.int64)
        ids[0] = 10_000_000
        arrays["rep0000_posting_ids"] = ids
        with open(path, "wb") as handle:
            np.savez(handle, **arrays)
        with pytest.raises(ValueError, match="corrupted"):
            load_index(path)

    def test_missing_repetition_arrays_rejected(self, adversarial_index, tmp_path):
        path = tmp_path / "index.bin"
        save_index(adversarial_index, path, config=V2)
        with np.load(path, allow_pickle=False) as container:
            arrays = {name: container[name] for name in container.files}
        del arrays["rep0001_posting_ids"]
        with open(path, "wb") as handle:
            np.savez(handle, **arrays)
        with pytest.raises(ValueError, match="repetition 1"):
            load_index(path)

    def test_missing_top_level_arrays_rejected(self, adversarial_index, tmp_path):
        """Missing top-level arrays must raise ValueError (catchable by the
        CLI), not leak a KeyError."""
        path = tmp_path / "index.bin"
        save_index(adversarial_index, path, config=V2)
        with np.load(path, allow_pickle=False) as container:
            arrays = {name: container[name] for name in container.files}
        del arrays["vector_items"]
        with open(path, "wb") as handle:
            np.savez(handle, **arrays)
        with pytest.raises(ValueError, match="vector_items"):
            load_index(path)

    def test_missing_meta_keys_rejected(self, adversarial_index, tmp_path):
        path = tmp_path / "index.bin"
        save_index(adversarial_index, path, config=V2)
        with np.load(path, allow_pickle=False) as container:
            arrays = {name: container[name] for name in container.files}
        meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
        del meta["num_vectors_hint"]
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        with open(path, "wb") as handle:
            np.savez(handle, **arrays)
        with pytest.raises(ValueError, match="num_vectors_hint"):
            load_index(path)

    def test_missing_config_field_rejected(self, adversarial_index, tmp_path):
        path = tmp_path / "index.bin"
        save_index(adversarial_index, path, config=V2)
        with np.load(path, allow_pickle=False) as container:
            arrays = {name: container[name] for name in container.files}
        meta = json.loads(bytes(arrays["meta"]).decode("utf-8"))
        del meta["config"]["b1"]
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
        with open(path, "wb") as handle:
            np.savez(handle, **arrays)
        with pytest.raises(ValueError, match="missing field 'b1'"):
            load_index(path)

    def test_negative_vector_lengths_rejected(self, adversarial_index, tmp_path):
        path = tmp_path / "index.bin"
        save_index(adversarial_index, path, config=V2)
        with np.load(path, allow_pickle=False) as container:
            arrays = {name: container[name] for name in container.files}
        lengths = arrays["vector_lengths"].astype(np.int64)
        lengths[0] += lengths[1]
        lengths[1] = -lengths[1]
        arrays["vector_lengths"] = lengths
        with open(path, "wb") as handle:
            np.savez(handle, **arrays)
        with pytest.raises(ValueError, match="corrupted"):
            load_index(path)

    def test_non_object_meta_rejected(self, adversarial_index, tmp_path):
        path = tmp_path / "index.bin"
        save_index(adversarial_index, path, config=V2)
        with np.load(path, allow_pickle=False) as container:
            arrays = {name: container[name] for name in container.files}
        arrays["meta"] = np.frombuffer(b"[1, 2, 3]", dtype=np.uint8)
        with open(path, "wb") as handle:
            np.savez(handle, **arrays)
        with pytest.raises(ValueError, match="metadata"):
            load_index(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_index(tmp_path / "does_not_exist.bin")


class TestLegacyV1:
    def test_v1_file_still_loads(self, adversarial_index, skewed_dataset, tmp_path):
        path = tmp_path / "legacy.json"
        _save_legacy_v1(adversarial_index, path)
        loaded = load_index(path)
        for query_id in range(20):
            assert (
                adversarial_index.query(skewed_dataset[query_id])[0]
                == loaded.query(skewed_dataset[query_id])[0]
            )

    def test_v1_preserves_removals(self, adversarial_index, skewed_dataset, tmp_path):
        adversarial_index.remove(4)
        path = tmp_path / "legacy.json"
        _save_legacy_v1(adversarial_index, path)
        loaded = load_index(path)
        assert loaded.query(skewed_dataset[4], mode="best")[0] != 4

    def test_v1_unknown_version_rejected(self, adversarial_index, tmp_path):
        path = tmp_path / "legacy.json"
        _save_legacy_v1(adversarial_index, path)
        payload = json.loads(path.read_text())
        payload["format_version"] = 7
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="format version"):
            load_index(path)

    def test_convert_v1_to_v2(self, adversarial_index, skewed_dataset, tmp_path):
        source = tmp_path / "legacy.json"
        destination = tmp_path / "converted.bin"
        adversarial_index.remove(6)
        _save_legacy_v1(adversarial_index, source)
        convert_index_file(source, destination, config=V2)
        assert zipfile.is_zipfile(destination)
        loaded = load_index(destination)
        for query_id in range(20):
            assert (
                adversarial_index.query(skewed_dataset[query_id])[0]
                == loaded.query(skewed_dataset[query_id])[0]
            )
        assert loaded.query(skewed_dataset[6], mode="best")[0] != 6

    def test_convert_is_smaller(self, adversarial_index, tmp_path):
        source = tmp_path / "legacy.json"
        destination = tmp_path / "converted.bin"
        _save_legacy_v1(adversarial_index, source)
        convert_index_file(source, destination)
        assert destination.stat().st_size < source.stat().st_size

    def test_legacy_writer_version_constant(self):
        assert LEGACY_JSON_VERSION == 1
        assert V2_FORMAT_VERSION == 2
        assert FORMAT_VERSION == 3


class TestV3Format:
    """The sharded, mmap-native directory layout (format v3)."""

    def test_default_save_is_v3_directory(self, adversarial_index, tmp_path):
        path = tmp_path / "index.v3"
        save_index(adversarial_index, path)
        assert path.is_dir()
        assert (path / "manifest.json").is_file()
        assert (path / "store.bin").is_file()
        manifest = json.loads((path / "manifest.json").read_text())
        assert manifest["format_version"] == FORMAT_VERSION
        assert manifest["num_shards"] == 8
        assert len(manifest["fences"]) == 7
        assert len(manifest["shard_files"]) == 8
        for name in manifest["shard_files"]:
            assert (path / name).is_file()

    def test_saved_bytes_are_pinned(self, tmp_path):
        """A build + inserts saves byte-for-byte what the tuple-based filter
        flow saved (digests taken at commit 2912fb4, before generation,
        ingestion and probing went array-native).  The dataset comes from a
        plain LCG so no RNG or seed-base setting can move it."""
        state = 20240915
        dataset = []
        for _ in range(700):
            members = set()
            for item in range(90):
                state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
                if (state >> 11) / (1 << 53) < (0.3 if item < 10 else 0.06):
                    members.add(item)
            dataset.append(frozenset(members))
        index = SkewAdaptiveIndex(
            ItemDistribution(np.asarray([0.3] * 10 + [0.06] * 80)),
            config=SkewAdaptiveIndexConfig(b1=0.5, repetitions=5, seed=9),
        )
        index.build(dataset[:600])
        for members in dataset[600:]:
            index.insert(members)
        path = tmp_path / "index.v3"
        save_index(index, path, config=PersistenceConfig(shards=4))
        digests = {
            file.name: hashlib.sha256(file.read_bytes()).hexdigest()[:16]
            for file in sorted(path.glob("*.bin"))
        }
        assert digests == {
            "shard_0000.bin": "b99a5d1cbc8c3e45",
            "shard_0001.bin": "1aa409941bc19860",
            "shard_0002.bin": "41d29e4e2159405c",
            "shard_0003.bin": "912552399f1da9a1",
            "store.bin": "d6b46e1f14b7a099",
        }

    def test_shard_count_is_configurable(self, adversarial_index, tmp_path):
        path = tmp_path / "index.v3"
        save_index(adversarial_index, path, config=PersistenceConfig(shards=3))
        manifest = json.loads((path / "manifest.json").read_text())
        assert manifest["num_shards"] == 3
        loaded = load_index(path)
        assert loaded.num_indexed == adversarial_index.num_indexed

    def test_v3_round_trip_identical_queries_and_stats(
        self, adversarial_index, skewed_dataset, tmp_path
    ):
        path = tmp_path / "index.v3"
        save_index(adversarial_index, path)
        for mode in ("ram", "mmap"):
            loaded = load_index(path, mode=mode)
            for query_id in range(25):
                original, original_stats = adversarial_index.query(skewed_dataset[query_id])
                result, stats = loaded.query(skewed_dataset[query_id])
                assert result == original
                original_dict = original_stats.to_dict()
                result_dict = stats.to_dict()
                original_dict.pop("shards_probed")
                result_dict.pop("shards_probed")
                assert result_dict == original_dict

    def test_shards_partition_all_postings(self, adversarial_index, tmp_path):
        """Every slot and posting lands in exactly one shard: the manifest's
        per-shard counts sum to the store totals."""
        path = tmp_path / "index.v3"
        save_index(adversarial_index, path)
        manifest = json.loads((path / "manifest.json").read_text())
        engine = adversarial_index._engine
        for repetition, inverted in enumerate(engine.filter_indexes):
            slots = sum(
                entry["repetitions"][repetition]["num_slots"]
                for entry in manifest["shards"]
            )
            postings = sum(
                entry["repetitions"][repetition]["num_postings"]
                for entry in manifest["shards"]
            )
            assert slots == inverted.num_filters
            assert postings == inverted.total_entries

    def test_v1_to_v3_conversion_answers_identically(
        self, adversarial_index, skewed_dataset, tmp_path
    ):
        source = tmp_path / "legacy.json"
        adversarial_index.remove(6)
        _save_legacy_v1(adversarial_index, source)
        destination = tmp_path / "converted.v3"
        convert_index_file(source, destination)
        assert destination.is_dir()
        for mode in ("ram", "mmap"):
            loaded = load_index(destination, mode=mode)
            for query_id in range(20):
                assert (
                    loaded.query(skewed_dataset[query_id])[0]
                    == adversarial_index.query(skewed_dataset[query_id])[0]
                )
            assert loaded.query(skewed_dataset[6], mode="best")[0] != 6

    def test_v2_to_v3_and_back_round_trip(
        self, adversarial_index, skewed_dataset, tmp_path
    ):
        """v2 → v3 upgrade and v3 → v2 downgrade both answer bit-identically
        (single and batched), closing the ROADMAP downgrade-path item."""
        adversarial_index.insert(skewed_dataset[90])
        adversarial_index.remove(4)
        v2_first = tmp_path / "first.bin"
        save_index(adversarial_index, v2_first, config=V2)
        upgraded = tmp_path / "upgraded.v3"
        convert_index_file(v2_first, upgraded)
        downgraded = tmp_path / "downgraded.bin"
        convert_index_file(upgraded, downgraded, config=V2)
        assert zipfile.is_zipfile(downgraded)

        # A v2 file holds its slots in path order; loading puts every
        # repetition's store back into key order, array for array the built one.
        built = adversarial_index._engine.filter_indexes
        for loaded in (load_index(v2_first), load_index(downgraded)):
            for restored, original in zip(loaded._engine.filter_indexes, built):
                restored_state, original_state = restored.to_state(), original.to_state()
                for name in STATE_ARRAY_NAMES:
                    assert np.array_equal(restored_state[name], original_state[name]), name

        queries = skewed_dataset[:30]
        expected, expected_stats = adversarial_index.query_batch(queries)
        for loaded in (
            load_index(upgraded),
            load_index(upgraded, mode="mmap"),
            load_index(downgraded),
        ):
            results, stats = loaded.query_batch(queries)
            assert results == expected
            for stats_a, stats_b in zip(expected_stats.per_query, stats.per_query):
                dict_a, dict_b = stats_a.to_dict(), stats_b.to_dict()
                dict_a.pop("shards_probed")
                dict_b.pop("shards_probed")
                assert dict_a == dict_b

    def test_empty_dataset_round_trip_v3(self, skewed_distribution, tmp_path):
        index = SkewAdaptiveIndex(
            skewed_distribution, config=SkewAdaptiveIndexConfig(b1=0.5, repetitions=3)
        )
        index.build([])
        path = tmp_path / "empty.v3"
        save_index(index, path)
        for mode in ("ram", "mmap"):
            loaded = load_index(path, mode=mode)
            assert loaded.num_indexed == 0
            assert loaded.query({1, 2, 3})[0] is None

    def test_refuses_to_clobber_non_index_directory(self, adversarial_index, tmp_path):
        path = tmp_path / "precious"
        path.mkdir()
        (path / "keep.txt").write_text("do not delete")
        with pytest.raises(ValueError, match="does not look like an index"):
            save_index(adversarial_index, path)
        assert (path / "keep.txt").read_text() == "do not delete"

    def test_resave_over_existing_v3_directory(self, adversarial_index, tmp_path):
        path = tmp_path / "index.v3"
        save_index(adversarial_index, path, config=PersistenceConfig(shards=8))
        save_index(adversarial_index, path, config=PersistenceConfig(shards=2))
        manifest = json.loads((path / "manifest.json").read_text())
        assert manifest["num_shards"] == 2
        # Stale shard files from the 8-shard save are gone.
        assert not (path / "shard_0005.bin").exists()
        assert load_index(path).num_indexed == adversarial_index.num_indexed

    def test_describe_reports_shard_layout(self, adversarial_index, tmp_path):
        path = tmp_path / "index.v3"
        save_index(adversarial_index, path)
        description = describe_index_file(path)
        assert description["format_version"] == FORMAT_VERSION
        assert description["kind"] == "skew_adaptive"
        assert description["num_shards"] == 8
        assert len(description["shards"]) == 8
        assert description["disk_bytes"] > 0
        assert description["resident_bytes"] > 0


class TestMmapMode:
    """Read-only semantics and laziness of ``mode="mmap"``."""

    def test_mmap_requires_v3(self, adversarial_index, tmp_path):
        path = tmp_path / "index.bin"
        save_index(adversarial_index, path, config=V2)
        with pytest.raises(ValueError, match="mmap.*requires a format v3"):
            load_index(path, mode="mmap")

    def test_unknown_mode_rejected(self, adversarial_index, tmp_path):
        path = tmp_path / "index.v3"
        save_index(adversarial_index, path)
        with pytest.raises(ValueError, match="mode must be"):
            load_index(path, mode="lazy")

    def test_mmap_insert_raises_clear_error(
        self, adversarial_index, skewed_dataset, tmp_path
    ):
        path = tmp_path / "index.v3"
        save_index(adversarial_index, path)
        loaded = load_index(path, mode="mmap")
        before = loaded.num_indexed
        with pytest.raises(TypeError, match="read-only.*mode='ram'"):
            loaded.insert(skewed_dataset[90])
        # The failed insert must not leave partial state behind.
        assert loaded.num_indexed == before
        assert loaded.query(skewed_dataset[0])[0] == adversarial_index.query(
            skewed_dataset[0]
        )[0]

    def test_mmap_vectors_equal_ram_vectors_and_hold_plain_ints(
        self, adversarial_index, tmp_path
    ):
        """A vector materialised off the mapped store is the RAM one, and its
        members are Python ``int``, not numpy scalars."""
        path = tmp_path / "index.v3"
        save_index(adversarial_index, path)
        loaded = load_index(path, mode="mmap")
        assert loaded.num_indexed == adversarial_index.num_indexed
        for vector_id in range(adversarial_index.num_indexed):
            mapped = loaded.get_vector(vector_id)
            assert mapped == adversarial_index.get_vector(vector_id)
            assert type(mapped) is frozenset
            assert all(type(item) is int for item in mapped)

    def test_mmap_remove_overlays_correctly(
        self, adversarial_index, skewed_dataset, tmp_path
    ):
        path = tmp_path / "index.v3"
        save_index(adversarial_index, path)
        loaded = load_index(path, mode="mmap")
        loaded.remove(2)
        assert loaded.query(skewed_dataset[2], mode="best")[0] != 2
        candidates, _stats = loaded.query_candidates(skewed_dataset[2])
        assert 2 not in candidates
        # The removal is an overlay: the files on disk are untouched and a
        # fresh load still sees vector 2.
        fresh = load_index(path, mode="mmap")
        assert fresh.query(skewed_dataset[2], mode="best")[0] == adversarial_index.query(
            skewed_dataset[2], mode="best"
        )[0]

    def test_mmap_loaded_index_can_be_resaved(
        self, adversarial_index, skewed_dataset, tmp_path
    ):
        """Re-serialising an mmap-loaded index materialises the shards and
        produces a file set that answers identically (the downgrade path
        runs through this)."""
        path = tmp_path / "index.v3"
        save_index(adversarial_index, path)
        loaded = load_index(path, mode="mmap")
        resaved = tmp_path / "resaved.v3"
        save_index(loaded, resaved)
        again = load_index(resaved)
        for query_id in range(15):
            assert (
                again.query(skewed_dataset[query_id])[0]
                == adversarial_index.query(skewed_dataset[query_id])[0]
            )

    def test_v3_save_over_v2_file_upgrades_in_place(
        self, adversarial_index, skewed_dataset, tmp_path
    ):
        """Saving v3 over a path currently holding a v2 file replaces the
        file with the directory layout, staging the new layout fully before
        the old file is removed."""
        path = tmp_path / "index.bin"
        save_index(adversarial_index, path, config=V2)
        assert path.is_file()
        save_index(adversarial_index, path)
        assert path.is_dir()
        assert not (tmp_path / "index.bin.v3-staging").exists()
        loaded = load_index(path, mode="mmap")
        for query_id in range(10):
            assert (
                loaded.query(skewed_dataset[query_id])[0]
                == adversarial_index.query(skewed_dataset[query_id])[0]
            )

    def test_contains_handles_empty_shards(self, adversarial_index, tmp_path):
        """Membership probes that route to an empty key-range shard return
        False instead of tripping over the empty offsets array."""
        path = tmp_path / "index.v3"
        save_index(adversarial_index, path, config=PersistenceConfig(shards=64))
        loaded = load_index(path, mode="mmap")
        engine = loaded._engine
        store = engine.filter_indexes[0]
        hits = 0
        for probe in [(0,), (1, 2), (3, 4, 5), (250, 251), (7,)]:
            hits += probe in store  # must not raise, whatever shard it routes to
        assert hits >= 0

    def test_mmap_probe_batches_match_ram_at_the_edges(self, adversarial_index, tmp_path):
        """A mixed batch whose misses alone touch some shards, a batch whose
        probes all miss and a zero-probe batch merge back into probe order
        exactly as the RAM store answers them."""
        path = tmp_path / "index.v3"
        save_index(adversarial_index, path, config=PersistenceConfig(shards=8))
        ram = load_index(path)._engine.filter_indexes[0]
        mapped = load_index(path, mode="mmap")._engine.filter_indexes[0]
        state, keys = ram.to_sorted_state()
        path_offsets = state["path_offsets"]
        stored = [
            tuple(state["path_items"][path_offsets[slot] : path_offsets[slot + 1]].tolist())
            for slot in np.flatnonzero(keys < mapped.fences[0])[:5]
        ]
        missing = [(10_000 + step, step) for step in range(24)]
        assert stored
        for batch in (stored + missing, missing, []):
            items, offsets = paths_to_csr(batch)
            probe_keys = np.asarray([fold_path(probe) for probe in batch], dtype=np.uint64)
            ids, out_offsets, route = mapped.probe_batch_routed(items, offsets, probe_keys)
            expected_ids, expected_offsets, _route = ram.probe_batch_routed(
                items, offsets, probe_keys
            )
            assert np.array_equal(ids, expected_ids)
            assert np.array_equal(out_offsets, expected_offsets)
            assert out_offsets.size == len(batch) + 1
            assert route.tolist() == route_keys(mapped.fences, probe_keys).tolist()
            if batch and batch[0] in stored:
                assert ids.size
                assert set(route[len(stored) :].tolist()) - {0}  # misses-only shards
            else:
                assert ids.size == 0

    def test_mmap_index_can_resave_over_its_own_directory(
        self, adversarial_index, skewed_dataset, tmp_path
    ):
        """Resaving an mmap-loaded index onto the very directory backing its
        mapped shards must not destroy the index: the writer materialises
        every array before touching any existing file (regression test for
        an unlink-before-read data-loss bug)."""
        path = tmp_path / "index.v3"
        save_index(adversarial_index, path, config=PersistenceConfig(shards=8))
        loaded = load_index(path, mode="mmap")
        save_index(loaded, path, config=PersistenceConfig(shards=3))
        assert not list(path.glob("*.tmp"))
        again = load_index(path)
        for query_id in range(15):
            assert (
                again.query(skewed_dataset[query_id])[0]
                == adversarial_index.query(skewed_dataset[query_id])[0]
            )

    def test_shards_probed_counters(self, adversarial_index, skewed_dataset, tmp_path):
        path = tmp_path / "index.v3"
        save_index(adversarial_index, path)
        ram = load_index(path)
        mapped = load_index(path, mode="mmap")
        _result, ram_stats = ram.query_candidates(skewed_dataset[0])
        _result, mmap_stats = mapped.query_candidates(skewed_dataset[0])
        # RAM mode: one probe table per repetition that generated filters.
        assert 0 < ram_stats.shards_probed <= ram_stats.repetitions_used
        # mmap mode: a multi-filter probe set fans out across shards.
        assert mmap_stats.shards_probed >= ram_stats.shards_probed
        _results, batch_stats = mapped.query_batch(skewed_dataset[:10], batch_size=5)
        assert batch_stats.shards_probed > 0


class TestV3Corruption:
    """Manifest corruption and truncated shard files fail actionably."""

    @pytest.fixture()
    def v3_path(self, adversarial_index, tmp_path):
        path = tmp_path / "index.v3"
        save_index(adversarial_index, path)
        return path

    def _manifest(self, path):
        return json.loads((path / "manifest.json").read_text())

    def _write_manifest(self, path, manifest):
        (path / "manifest.json").write_text(json.dumps(manifest))

    def test_missing_manifest_rejected(self, v3_path):
        (v3_path / "manifest.json").unlink()
        with pytest.raises(ValueError, match="manifest.json"):
            load_index(v3_path)

    def test_invalid_manifest_json_rejected(self, v3_path):
        (v3_path / "manifest.json").write_text("{not json")
        with pytest.raises(ValueError, match="not valid JSON.*corrupted"):
            load_index(v3_path)

    def test_wrong_version_rejected(self, v3_path):
        manifest = self._manifest(v3_path)
        manifest["format_version"] = 99
        self._write_manifest(v3_path, manifest)
        with pytest.raises(ValueError, match="format version 99"):
            load_index(v3_path)

    def test_missing_manifest_fields_rejected(self, v3_path):
        manifest = self._manifest(v3_path)
        del manifest["fences"]
        del manifest["num_vectors_hint"]
        self._write_manifest(v3_path, manifest)
        with pytest.raises(ValueError, match="fences.*num_vectors_hint|num_vectors_hint.*fences"):
            load_index(v3_path)

    def test_non_numeric_fences_rejected(self, v3_path):
        """Type-corrupt manifests surface as the documented ValueError (the
        CLI catches it), never a raw TypeError."""
        manifest = self._manifest(v3_path)
        manifest["fences"] = [None] + manifest["fences"][1:]
        self._write_manifest(v3_path, manifest)
        with pytest.raises(ValueError, match="non-numeric.*corrupted"):
            load_index(v3_path)
        manifest["fences"] = manifest["fences"][1:]
        manifest["num_shards"] = {"oops": 1}
        self._write_manifest(v3_path, manifest)
        with pytest.raises(ValueError, match="non-numeric.*corrupted"):
            load_index(v3_path)

    def test_inconsistent_fences_rejected(self, v3_path):
        manifest = self._manifest(v3_path)
        manifest["fences"] = list(reversed(manifest["fences"]))
        self._write_manifest(v3_path, manifest)
        with pytest.raises(ValueError, match="fences are inconsistent"):
            load_index(v3_path)

    def test_missing_shard_file_rejected(self, v3_path):
        (v3_path / "shard_0003.bin").unlink()
        with pytest.raises(ValueError, match="missing shard_0003.bin.*incomplete"):
            load_index(v3_path)

    def test_truncated_shard_rejected_in_ram_mode(self, v3_path):
        shard = v3_path / "shard_0001.bin"
        data = shard.read_bytes()
        shard.write_bytes(data[: len(data) // 2])
        with pytest.raises(ValueError, match="truncated|corrupted"):
            load_index(v3_path)

    def test_truncated_shard_rejected_in_mmap_mode(self, v3_path, skewed_dataset):
        """mmap mode opens shards lazily, so truncation surfaces on first
        touch of the damaged shard — still as an actionable ValueError."""
        for shard in range(8):
            name = v3_path / f"shard_{shard:04d}.bin"
            data = name.read_bytes()
            name.write_bytes(data[: max(len(data) // 3, 64)])
        loaded = load_index(v3_path, mode="mmap")
        with pytest.raises(ValueError, match="truncated|corrupted"):
            for query_id in range(10):
                loaded.query(skewed_dataset[query_id])

    def test_manifest_count_mismatch_rejected(self, v3_path):
        manifest = self._manifest(v3_path)
        manifest["shards"][0]["repetitions"][0]["num_slots"] += 1
        self._write_manifest(v3_path, manifest)
        with pytest.raises(ValueError, match="disagrees with the manifest|manifest promises"):
            load_index(v3_path)

    def test_out_of_range_posting_ids_rejected_on_ram_load(
        self, adversarial_index, tmp_path
    ):
        """validate_postings cross-checks the concatenated shards on a RAM
        load, like it always did for v2 files."""
        path = tmp_path / "index.v3"
        save_index(adversarial_index, path, config=PersistenceConfig(shards=1))
        manifest = json.loads((path / "manifest.json").read_text())
        # Rewrite the single shard with a poisoned posting id via the
        # private container API (simulating silent bit rot that still
        # matches the manifest counts).
        from repro.core.serialization import _read_raw_container, _write_raw_container

        shard_path = path / manifest["shard_files"][0]
        arrays = _read_raw_container(shard_path, "ram")
        ids = arrays["rep0000_posting_ids"].astype(np.int64)
        ids[0] = 10_000_000
        arrays["rep0000_posting_ids"] = ids
        _write_raw_container(shard_path, arrays)
        with pytest.raises(ValueError, match="corrupted"):
            load_index(path)

    def test_store_file_truncation_rejected(self, v3_path):
        store = v3_path / "store.bin"
        data = store.read_bytes()
        store.write_bytes(data[: len(data) // 2])
        with pytest.raises(ValueError, match="truncated"):
            load_index(v3_path)

    def test_describe_rejects_truncated_files_with_value_error(
        self, v3_path, adversarial_index, tmp_path
    ):
        """`describe_index_file` honours the same ValueError contract as
        loading for every format (the CLI's `inspect` relies on it)."""
        (v3_path / "store.bin").write_bytes(b"RPV3tooshort"[:8])
        with pytest.raises(ValueError, match="truncated|corrupt"):
            describe_index_file(v3_path)

        v2_path = tmp_path / "index.bin"
        save_index(adversarial_index, v2_path, config=V2)
        data = v2_path.read_bytes()
        v2_path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ValueError, match="not a valid index file"):
            describe_index_file(v2_path)
