"""The unified model-artifact layer: atomic writes, manifests, LRU, legacy."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.baselines import AirchitectV1, V1Config
from repro.core import AirchitectV2, ModelConfig, Stage1Config, Stage1Trainer
from repro.dse import generate_random_dataset
from repro.nn import load_module, save_module
from repro.registry import (MANIFEST_KEY, ModelRegistry, RegistryError,
                            atomic_savez, read_manifest, read_state)
from repro.train import Checkpointer

MODEL_CONFIG = ModelConfig(d_model=16, n_layers=1, n_heads=2, embed_dim=8,
                           head_hidden=16, num_buckets=8)


def _v2(problem, seed=0):
    return AirchitectV2(MODEL_CONFIG, problem, np.random.default_rng(seed))


def _assert_same_state(left, right):
    left_state, right_state = left.state_dict(), right.state_dict()
    assert sorted(left_state) == sorted(right_state)
    for key, value in left_state.items():
        np.testing.assert_array_equal(value, right_state[key], err_msg=key)


@pytest.fixture
def registry(tmp_path) -> ModelRegistry:
    return ModelRegistry(tmp_path / "registry")


class TestAtomicSavez:
    def test_writes_and_appends_suffix(self, tmp_path):
        out = atomic_savez(tmp_path / "arr", {"x": np.arange(4)})
        assert out.endswith(".npz") and os.path.isfile(out)
        with np.load(out) as archive:
            np.testing.assert_array_equal(archive["x"], np.arange(4))

    def test_replaces_existing_file_atomically(self, tmp_path):
        path = tmp_path / "arr.npz"
        atomic_savez(path, {"x": np.zeros(2)})
        atomic_savez(path, {"x": np.ones(2)})
        with np.load(path) as archive:
            np.testing.assert_array_equal(archive["x"], np.ones(2))
        # No temp-file litter next to the destination.
        assert os.listdir(tmp_path) == ["arr.npz"]

    def test_creates_parent_directories(self, tmp_path):
        out = atomic_savez(tmp_path / "a" / "b" / "arr", {"x": np.zeros(1)})
        assert os.path.isfile(out)


class TestArtifacts:
    def test_save_load_round_trip_is_bit_identical(self, registry, problem):
        model = _v2(problem, seed=3)
        artifact = registry.save(model, "demo", scale="tiny",
                                 fingerprint={"seed": 3},
                                 metrics={"accuracy": 0.25})
        assert artifact.kind == "airchitect_v2"
        assert artifact.scale == "tiny"
        assert artifact.metrics == {"accuracy": 0.25}
        loaded = registry.load("demo", problem=problem)
        _assert_same_state(model, loaded)
        inputs = problem.sample_inputs(16, np.random.default_rng(1))
        np.testing.assert_array_equal(model.predict_indices(inputs),
                                      loaded.predict_indices(inputs))

    def test_manifest_readable_without_loading_weights(self, registry,
                                                       problem):
        registry.save(_v2(problem), "meta-only", scale="tiny")
        manifest = read_manifest(registry.path_for("meta-only"))
        assert manifest["kind"] == "airchitect_v2"
        assert manifest["config"]["d_model"] == MODEL_CONFIG.d_model
        assert manifest["created_at"] > 0

    def test_list_ids_and_summary(self, registry, problem):
        registry.save(_v2(problem, 1), "group/a", scale="tiny")
        registry.save(_v2(problem, 2), "group/b", scale="tiny")
        assert registry.ids() == ["group/a", "group/b"]
        summary = registry.list()[0].summary()
        assert summary["model_id"] == "group/a"
        assert summary["kind"] == "airchitect_v2"
        assert summary["legacy"] is False

    def test_nested_ids_and_invalid_ids(self, registry, problem):
        registry.save(_v2(problem), "a/b/c")
        assert registry.has("a/b/c")
        for bad in ("", "/abs", "../escape", "a/../../b"):
            with pytest.raises(RegistryError):
                registry.path_for(bad)
        assert not registry.has("../escape")

    def test_delete(self, registry, problem):
        registry.save(_v2(problem), "gone")
        registry.delete("gone")
        assert not registry.has("gone")

    def test_load_builds_a_fresh_instance_each_call(self, registry,
                                                    problem):
        """The registry keeps no loaded models: each caller owns its
        instance, and a re-save is seen by the next load."""
        registry.save(_v2(problem, 1), "hot")
        first = registry.load("hot", problem=problem)
        assert registry.load("hot", problem=problem) is not first
        registry.save(_v2(problem, 2), "hot")
        _assert_same_state(_v2(problem, 2),
                           registry.load("hot", problem=problem))

    def test_read_state_strips_manifest(self, registry, problem):
        artifact = registry.save(_v2(problem), "stripped")
        assert MANIFEST_KEY not in read_state(artifact.path)

    def test_v1_baseline_round_trips_through_builder(self, registry, problem):
        config = V1Config(hidden_dims=(16, 16), epochs=1)
        model = AirchitectV1(config, problem, np.random.default_rng(4))
        registry.save(model, "v1")
        loaded = registry.load("v1", problem=problem)
        assert isinstance(loaded, AirchitectV1)
        assert loaded.config.hidden_dims == (16, 16)
        _assert_same_state(model, loaded)


class TestLegacyCompat:
    """Pre-registry ``.npz`` archives keep loading bit-identically."""

    def test_save_module_archive_loads_through_registry(self, registry,
                                                        problem):
        model = _v2(problem, seed=9)
        save_module(model, registry.path_for("legacy"))
        fresh = _v2(problem, seed=0)
        registry.load_into("legacy", fresh)
        _assert_same_state(model, fresh)

    def test_legacy_archive_cannot_self_describe(self, registry, problem):
        save_module(_v2(problem), registry.path_for("legacy"))
        artifact = registry.artifact("legacy")
        assert artifact.legacy and artifact.kind is None
        with pytest.raises(RegistryError, match="no manifest"):
            registry.load("legacy", problem=problem)
        # ... and is not advertised as discoverable.
        assert registry.ids() == []

    def test_load_module_reads_registry_artifacts(self, registry, problem):
        """The inverse direction: old load paths accept new artifacts."""
        model = _v2(problem, seed=7)
        artifact = registry.save(model, "new-format")
        with np.load(artifact.path) as archive:
            assert MANIFEST_KEY in archive.files
        fresh = _v2(problem, seed=0)
        load_module(fresh, artifact.path)
        _assert_same_state(model, fresh)

    def test_missing_artifact_is_a_registry_error(self, registry):
        with pytest.raises(RegistryError, match="no artifact"):
            registry.artifact("absent")

    def test_corrupt_archive_is_skipped_by_discovery(self, registry,
                                                     problem):
        registry.save(_v2(problem), "good")
        # Zip magic + garbage: np.load raises zipfile.BadZipFile on it.
        (registry.root / "corrupt.npz").write_bytes(b"PK\x03\x04garbage")
        (registry.root / "not-a-zip.npz").write_bytes(b"hello")
        assert registry.ids() == ["good"]


class TestCheckpointerRegistration:
    def test_snapshots_register_live_artifacts(self, registry, problem,
                                               tmp_path):
        """Every checkpoint also lands in the registry, metrics included."""
        data = generate_random_dataset(problem, 120,
                                       np.random.default_rng(11))
        model = _v2(problem, seed=5)
        ckpt = Checkpointer(tmp_path / "ck.npz", registry=registry,
                            model_id="inflight")
        history = Stage1Trainer(model, Stage1Config(epochs=2)).train(
            data, callbacks=[ckpt])
        artifact = registry.artifact("inflight")
        assert artifact.kind == "airchitect_v2"
        assert artifact.metrics["epochs_done"] == 2
        assert artifact.metrics["loss"] == history["loss"][-1]
        assert artifact.fingerprint["epochs"] == 2
        # The registered weights are the *final* fitted weights.
        loaded = registry.load("inflight", problem=problem)
        _assert_same_state(model, loaded)

    def test_registry_without_model_id_rejected(self, registry, tmp_path):
        with pytest.raises(ValueError, match="together"):
            Checkpointer(tmp_path / "ck.npz", registry=registry)
