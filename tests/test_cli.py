"""CLI: the `repro predict` serving entry point."""

from __future__ import annotations

import json

import pytest

from repro.cli import main


class TestPredictCommand:
    def test_batched_random_sweep_json(self, capsys):
        code = main(["predict", "--untrained", "--random", "12",
                     "--scale", "tiny", "--json", "--seed", "3"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["samples"] == 12
        assert len(doc["predictions"]) == 12
        assert all(p["num_pes"] % 8 == 0 for p in doc["predictions"])

    def test_input_file_and_table_output(self, tmp_path, capsys):
        wl = tmp_path / "layers.txt"
        wl.write_text("# M N K dataflow\n64 512 256 1\n8,8,8\n")
        code = main(["predict", "--untrained", "--input", str(wl),
                     "--scale", "tiny"])
        assert code == 0
        out = capsys.readouterr().out
        assert "num_pes" in out
        assert "2 samples" in out

    def test_malformed_input_exits_nonzero_with_message(self, tmp_path,
                                                        capsys):
        wl = tmp_path / "bad.txt"
        wl.write_text("64 512\n")
        code = main(["predict", "--untrained", "--input", str(wl),
                     "--scale", "tiny"])
        assert code == 2
        err = capsys.readouterr().err
        assert "repro predict: error:" in err
        assert f"{wl}:1" in err and "M N K" in err

    def test_non_integer_input_exits_nonzero(self, tmp_path, capsys):
        wl = tmp_path / "bad.txt"
        wl.write_text("64 abc 12\n")
        code = main(["predict", "--untrained", "--input", str(wl),
                     "--scale", "tiny"])
        assert code == 2
        assert "expected 'M N K" in capsys.readouterr().err

    def test_empty_input_file_exits_nonzero(self, tmp_path, capsys):
        wl = tmp_path / "empty.txt"
        wl.write_text("# only a comment\n")
        code = main(["predict", "--untrained", "--input", str(wl),
                     "--scale", "tiny"])
        assert code == 2
        assert "no workloads found" in capsys.readouterr().err

    def test_missing_input_file_exits_nonzero(self, tmp_path, capsys):
        code = main(["predict", "--untrained", "--input",
                     str(tmp_path / "does_not_exist.txt"), "--scale", "tiny"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_nonpositive_random_rejected(self, n, capsys):
        with pytest.raises(SystemExit) as err:
            main(["predict", "--untrained", "--random", n, "--scale", "tiny"])
        assert err.value.code == 2
        assert "--random must be >= 1" in capsys.readouterr().err

    def test_out_of_range_dataflow_exits_nonzero(self, tmp_path, capsys):
        wl = tmp_path / "bad_df.txt"
        wl.write_text("8 8 8 7\n8 8 8 1\n")
        code = main(["predict", "--untrained", "--input", str(wl),
                     "--scale", "tiny"])
        assert code == 2
        assert "dataflow must be in 0..2" in capsys.readouterr().err

    def test_out_of_range_dims_clamped(self, tmp_path, capsys):
        wl = tmp_path / "big.txt"
        wl.write_text("999999 999999 999999 2\n")
        code = main(["predict", "--untrained", "--input", str(wl),
                     "--scale", "tiny", "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        pred = doc["predictions"][0]
        assert pred["m"] == 256 and pred["n"] == 1677 and pred["k"] == 1185


class TestServeCommand:
    """`repro serve` argument validation (the serving stack itself is
    exercised end-to-end in tests/serving/test_server.py)."""

    @pytest.mark.parametrize("flags", [
        ["--max-batch-size", "0"],
        ["--max-queue", "0"],
        ["--request-timeout", "0"],
        ["--request-timeout", "-3"],
    ], ids=["batch-size", "queue", "timeout-zero", "timeout-neg"])
    def test_bad_flush_policy_rejected(self, flags, capsys):
        with pytest.raises(SystemExit) as err:
            main(["serve", "--untrained", "--scale", "tiny"] + flags)
        assert err.value.code == 2
        assert "must be" in capsys.readouterr().err

    def test_help_mentions_endpoints(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["serve", "--help"])
        assert err.value.code == 0
        out = capsys.readouterr().out
        assert "/predict" in out
        assert "--async" in out
        assert "--max-queue" in out
        assert "--request-timeout" in out


class TestTrainCommand:
    def test_smoke_trains_and_reports_json(self, tmp_path, capsys):
        code = main(["train", "--smoke", "--cache", str(tmp_path), "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["model"] == "v2"
        assert doc["scale"] == "tiny"
        assert doc["cached_model"] is False
        assert doc["train_samples"] > 0
        assert 0.0 <= doc["accuracy"] <= 1.0
        assert "execution" not in doc
        # Every fit times its phases: the profile needs no flag.
        profile = doc["profile"]
        assert profile["batches"] > 0
        assert set(profile["phases"]) == {"data", "forward", "backward",
                                          "optimizer"}

    def test_reference_path_matches_fast_accuracy(self, tmp_path, capsys):
        """The composed reference oracle trains through the CLI to the
        fast path's accuracy (the numeric contract's accuracy parity)."""
        from .nn.reference import reference_path
        docs = {}
        for name in ("reference", "fast"):
            args = ["train", "--smoke", "--cache", str(tmp_path / name),
                    "--json"]
            if name == "reference":
                with reference_path():
                    assert main(args) == 0
            else:
                assert main(args) == 0
            docs[name] = json.loads(capsys.readouterr().out)
        for key in ("accuracy", "pe_accuracy", "l2_accuracy"):
            assert docs["reference"][key] == docs["fast"][key], key

    def test_second_run_loads_cached_model(self, tmp_path, capsys):
        main(["train", "--smoke", "--cache", str(tmp_path), "--json"])
        capsys.readouterr()
        code = main(["train", "--smoke", "--cache", str(tmp_path), "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["cached_model"] is True
        assert doc["profile"]["batches"] == 0     # no epochs ran

    def test_checkpoints_cleaned_after_success(self, tmp_path, capsys):
        main(["train", "--smoke", "--cache", str(tmp_path)])
        leftovers = list(tmp_path.glob("**/ckpt_*"))
        assert leftovers == []
        # The text summary prints the phase shares whenever batches ran.
        assert "batches): data " in capsys.readouterr().out

    def test_parallel_labelling_workers(self, tmp_path, capsys):
        code = main(["train", "--smoke", "--cache", str(tmp_path),
                     "--workers", "2", "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["label_workers"] == 2

    def test_baseline_model(self, tmp_path, capsys):
        code = main(["train", "--smoke", "--model", "v1",
                     "--cache", str(tmp_path), "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["model"] == "v1"

    def test_bad_workers_rejected(self):
        with pytest.raises(SystemExit) as err:
            main(["train", "--smoke", "--workers", "0"])
        assert err.value.code == 2

    def test_vaesa_trains_without_oneshot_metrics(self, tmp_path, capsys):
        code = main(["train", "--smoke", "--model", "vaesa",
                     "--cache", str(tmp_path), "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["model"] == "vaesa"
        assert doc["accuracy"] is None    # search-based inference


class TestRegistryFlow:
    """--registry/--model-id: train registers an artifact, predict/serve
    load it."""

    def test_train_registers_then_predict_serves_artifact(self, tmp_path,
                                                          capsys):
        registry_dir = tmp_path / "registry"
        code = main(["train", "--smoke", "--cache", str(tmp_path / "cache"),
                     "--registry", str(registry_dir),
                     "--model-id", "demo", "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["registry"] == {"root": str(registry_dir),
                                   "model_id": "demo"}

        from repro.registry import ModelRegistry
        artifact = ModelRegistry(registry_dir).artifact("demo")
        assert artifact.kind == "airchitect_v2"
        assert artifact.scale == "tiny"
        assert artifact.metrics["accuracy"] == doc["accuracy"]

        code = main(["predict", "--registry", str(registry_dir),
                     "--model-id", "demo", "--random", "8",
                     "--json", "--seed", "2"])
        assert code == 0
        served = json.loads(capsys.readouterr().out)
        assert served["samples"] == 8

        # The registry-loaded model predicts bit-identically to the
        # workspace-cached one the training run left behind.
        code = main(["predict", "--cache", str(tmp_path / "cache"),
                     "--scale", "tiny", "--random", "8",
                     "--json", "--seed", "2"])
        assert code == 0
        cached = json.loads(capsys.readouterr().out)
        assert served["predictions"] == cached["predictions"]

    def test_default_model_id_derived_from_model_and_scale(self, tmp_path,
                                                           capsys):
        code = main(["train", "--smoke", "--cache", str(tmp_path / "cache"),
                     "--registry", str(tmp_path / "registry"), "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["registry"]["model_id"] == "v2_tiny_s0"

    def test_missing_artifact_is_a_clean_error(self, tmp_path, capsys):
        code = main(["predict", "--registry", str(tmp_path),
                     "--model-id", "ghost", "--random", "4"])
        assert code == 2
        assert "repro predict: error:" in capsys.readouterr().err

    def test_search_only_artifact_is_a_clean_error(self, tmp_path, capsys):
        """A VAESA artifact has no one-shot inference path; predict must
        refuse it cleanly instead of crashing in the engine."""
        import numpy as np
        from repro.baselines import VAESA, VAESAConfig
        from repro.experiments.common import get_problem
        from repro.registry import ModelRegistry
        problem = get_problem()
        model = VAESA(VAESAConfig(epochs=1), problem,
                      np.random.default_rng(0))
        ModelRegistry(tmp_path).save(model, "vaesa")
        code = main(["predict", "--registry", str(tmp_path),
                     "--model-id", "vaesa", "--random", "4"])
        assert code == 2
        err = capsys.readouterr().err
        assert "no one-shot inference path" in err

    @pytest.mark.parametrize("argv", [
        ["predict", "--model-id", "x", "--random", "4"],        # no registry
        ["predict", "--registry", "r", "--random", "4"],        # no model id
        ["predict", "--registry", "r", "--model-id", "x",
         "--untrained", "--random", "4"],                       # conflict
        ["train", "--smoke", "--model-id", "x"],                # no registry
    ], ids=["model-id-only", "registry-only", "untrained-conflict",
            "train-model-id-only"])
    def test_inconsistent_flags_rejected(self, argv):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
