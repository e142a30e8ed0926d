"""Corruption-safe persistence: checksums, quarantine, rollback resume."""

from __future__ import annotations

import json
import os
import warnings

import numpy as np
import pytest

from repro.core import ModelConfig, Stage1Config, Stage1Trainer
from repro.dse import ExhaustiveOracle, generate_random_dataset
from repro.faults import inject_faults
from repro.registry import ModelRegistry, RegistryError
from repro.registry.storage import (CorruptArtifactError, atomic_savez,
                                    content_digest, read_state,
                                    read_verified)
from repro.serving import (CorruptCacheWarning, PersistentOracleCache,
                           StaleCacheWarning)
from repro.train import (CheckpointCorruptError, CheckpointMismatchError,
                         load_checkpoint, previous_checkpoint_path)

from tests.train.test_loop import StopAfter, _v2_model


def _truncate(path, keep_fraction=0.5) -> None:
    size = os.path.getsize(path)
    with open(path, "r+b") as fh:
        fh.truncate(max(1, int(size * keep_fraction)))


class TestVerifiedStorage:
    def test_round_trip_verifies(self, tmp_path):
        path = tmp_path / "a.npz"
        arrays = {"x": np.arange(10), "y": np.eye(3)}
        atomic_savez(path, arrays)
        loaded = read_verified(path)
        np.testing.assert_array_equal(loaded["x"], arrays["x"])
        np.testing.assert_array_equal(loaded["y"], arrays["y"])

    def test_truncated_archive_quarantined(self, tmp_path):
        path = str(tmp_path / "a.npz")
        atomic_savez(path, {"x": np.arange(4096)})
        _truncate(path)
        with pytest.raises(CorruptArtifactError) as excinfo:
            read_verified(path)
        assert not os.path.exists(path)
        assert os.path.exists(path + ".corrupt")
        assert excinfo.value.quarantined_to == path + ".corrupt"

    def test_bit_flip_fails_the_checksum(self, tmp_path):
        path = str(tmp_path / "a.npz")
        # Store uncompressible noise so a mid-file flip cannot become a
        # zlib error first; the checksum is the only thing catching it.
        payload = np.random.default_rng(0).integers(0, 256, 1 << 16) \
            .astype(np.uint8)
        digest = content_digest({"x": payload})
        atomic_savez(path, {"x": payload,
                            "__checksum__": np.array(digest)})
        flipped = payload.copy()
        flipped[123] ^= 0xFF
        atomic_savez(path, {"x": flipped,
                            "__checksum__": np.array(digest)})
        with pytest.raises(CorruptArtifactError, match="checksum mismatch"):
            read_verified(path)
        assert os.path.exists(path + ".corrupt")

    def test_legacy_archive_without_checksum_loads(self, tmp_path):
        path = str(tmp_path / "legacy.npz")
        np.savez(path, x=np.arange(5))
        loaded = read_verified(path)
        np.testing.assert_array_equal(loaded["x"], np.arange(5))

    def test_read_state_strips_reserved_keys(self, tmp_path):
        path = str(tmp_path / "a.npz")
        atomic_savez(path, {"w": np.ones(3)})
        assert set(read_state(path)) == {"w"}

    def test_missing_file_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_verified(tmp_path / "nope.npz")

    def test_torn_write_injection_tears_the_file(self, tmp_path):
        path = str(tmp_path / "torn.npz")
        with inject_faults({"storage.torn_write":
                            {"times": 1, "keep_fraction": 0.4}}):
            atomic_savez(path, {"x": np.arange(1024)})
        with pytest.raises(CorruptArtifactError):
            read_verified(path)
        # Only the armed write is torn; the next one is healthy again.
        atomic_savez(path, {"x": np.arange(1024)})
        np.testing.assert_array_equal(read_verified(path)["x"],
                                      np.arange(1024))


@pytest.fixture(scope="module")
def train_data(problem):
    return generate_random_dataset(problem, 300, np.random.default_rng(55))


class TestCheckpointRollback:
    def test_garbage_checkpoint_raises_typed_error(self, problem, tmp_path):
        """Satellite: raw BadZipFile/ValueError never escapes; the caller
        sees CheckpointCorruptError naming the path and the quarantine."""
        path = tmp_path / "ckpt.npz"
        path.write_bytes(b"this is not a zip archive at all")
        with pytest.raises(CheckpointCorruptError) as excinfo:
            load_checkpoint(path, loop=None)
        message = str(excinfo.value)
        assert "ckpt.npz" in message and "quarantined" in message
        assert isinstance(excinfo.value, CheckpointMismatchError)
        assert os.path.exists(str(path) + ".corrupt")

    def test_checkpointer_rotates_a_previous_generation(self, problem,
                                                        train_data,
                                                        tmp_path):
        ckpt = tmp_path / "stage1.npz"
        Stage1Trainer(_v2_model(problem), Stage1Config(epochs=4)).train(
            train_data, checkpoint_path=ckpt)
        assert os.path.exists(ckpt)
        assert os.path.exists(previous_checkpoint_path(ckpt))

    def test_resume_through_a_torn_checkpoint(self, problem, train_data,
                                              tmp_path):
        """The tentpole gate: tear the newest checkpoint mid-write (as a
        kill would), resume, and match the uninterrupted run bit for bit."""
        config = Stage1Config(epochs=6)
        straight_model = _v2_model(problem)
        straight = Stage1Trainer(straight_model, config).train(train_data)

        ckpt = tmp_path / "stage1.npz"
        Stage1Trainer(_v2_model(problem), config).train(
            train_data, callbacks=[StopAfter(3)], checkpoint_path=ckpt)
        _truncate(ckpt)                     # the mid-write kill

        resumed_model = _v2_model(problem)
        with pytest.warns(RuntimeWarning, match="corrupt"):
            resumed = Stage1Trainer(resumed_model, config).train(
                train_data, checkpoint_path=ckpt)
        assert resumed == straight
        for key, param in resumed_model.named_parameters():
            np.testing.assert_array_equal(
                param.data,
                dict(straight_model.named_parameters())[key].data,
                err_msg=key)
        # The torn generation was quarantined, not silently retried.
        assert os.path.exists(str(ckpt) + ".corrupt")

    def test_resume_with_both_generations_torn_restarts(self, problem,
                                                        train_data,
                                                        tmp_path):
        config = Stage1Config(epochs=4)
        ckpt = tmp_path / "stage1.npz"
        Stage1Trainer(_v2_model(problem), config).train(
            train_data, callbacks=[StopAfter(3)], checkpoint_path=ckpt)
        _truncate(ckpt)
        _truncate(previous_checkpoint_path(ckpt))
        with pytest.warns(RuntimeWarning, match="corrupt"):
            history = Stage1Trainer(_v2_model(problem), config).train(
                train_data, checkpoint_path=ckpt)
        assert len(history["loss"]) == 4    # fresh start, full run


class TestOracleCacheQuarantine:
    def _snapshot(self, problem, tmp_path):
        oracle = ExhaustiveOracle(problem)
        oracle.solve(problem.sample_inputs(8, np.random.default_rng(1)))
        cache = PersistentOracleCache(tmp_path / "labels.npz")
        cache.save(oracle)
        return cache

    def test_corrupt_snapshot_skipped_and_quarantined(self, problem,
                                                      tmp_path):
        """Satellite: stale and corrupt snapshots share one logged
        skip-and-quarantine path instead of crashing the server."""
        cache = self._snapshot(problem, tmp_path)
        _truncate(cache.path)
        fresh = ExhaustiveOracle(problem)
        with pytest.warns(CorruptCacheWarning, match="starting cold"):
            assert cache.load(fresh) == 0
        assert not cache.exists()
        assert os.path.exists(str(cache.path) + ".corrupt")
        assert fresh.cache_info().size == 0

    def test_corrupt_snapshot_read_meta_returns_none(self, problem,
                                                     tmp_path):
        cache = self._snapshot(problem, tmp_path)
        _truncate(cache.path)
        with pytest.warns(CorruptCacheWarning):
            assert cache.read_meta() is None

    def test_stale_snapshot_set_aside(self, problem, tmp_path):
        cache = self._snapshot(problem, tmp_path)
        stale = ExhaustiveOracle(problem, tolerance=0.5)
        with pytest.warns(StaleCacheWarning, match="fingerprint"):
            assert cache.load(stale) == 0
        assert not cache.exists()
        assert os.path.exists(str(cache.path) + ".stale")

    def test_healthy_snapshot_still_round_trips(self, problem, tmp_path):
        cache = self._snapshot(problem, tmp_path)
        fresh = ExhaustiveOracle(problem)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cache.load(fresh) == 8


class TestRegistryQuarantine:
    def _registry_with_model(self, problem, tmp_path):
        registry = ModelRegistry(tmp_path / "registry")
        config = ModelConfig(d_model=16, n_layers=1, n_heads=2, embed_dim=8)
        from repro.core import AirchitectV2
        model = AirchitectV2(config, problem, np.random.default_rng(5))
        registry.save(model, "m1")
        return registry

    def test_corrupt_artifact_raises_registry_error(self, problem, tmp_path):
        registry = self._registry_with_model(problem, tmp_path)
        path = registry.artifact("m1").path
        _truncate(path, keep_fraction=0.3)
        with pytest.raises(RegistryError, match="corrupt"):
            registry.load("m1")
        assert os.path.exists(str(path) + ".corrupt")

    def test_list_skips_corrupt_artifacts(self, problem, tmp_path):
        registry = self._registry_with_model(problem, tmp_path)
        path = registry.artifact("m1").path
        _truncate(path, keep_fraction=0.3)
        assert [a.model_id for a in registry.list()] == []
