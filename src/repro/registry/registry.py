"""The unified model-artifact layer: one way to save, discover and load.

Every trained model in the repo persists through a :class:`ModelRegistry`
rooted at a directory.  An artifact is a single atomic ``.npz`` (see
:mod:`repro.registry.storage`) holding the module's ``state_dict`` plus a
JSON manifest — the model *kind* (``airchitect_v2``, ``airchitect_v1``,
``gandse``, ``vaesa``), its hyper-parameter config, the experiment scale,
a training fingerprint, and evaluation metrics.  The manifest makes an
artifact self-describing: :meth:`ModelRegistry.load` rebuilds the module
from the manifest alone (via the kind's registered builder) and loads the
weights, so serving and the CLI need only a registry path and a model id.
The registry keeps no loaded models: each :meth:`ModelRegistry.load`
builds a fresh instance, and whoever loads one owns it (a served model
lives exactly as long as its server route).

Pre-registry archives (plain ``save_module`` output with no manifest) are
*legacy* artifacts: they load bit-identically through
:meth:`ModelRegistry.load_into` with a caller-built module, they just
cannot self-describe for :meth:`load`.
"""

from __future__ import annotations

import dataclasses
import json
import time
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from ..obs import get_logger
from .storage import (MANIFEST_KEY, CorruptArtifactError, normalise_npz_path,
                      read_manifest, read_state, write_artifact)

__all__ = ["ModelArtifact", "ModelRegistry", "RegistryError",
           "register_builder", "model_kind"]

FORMAT_VERSION = 1


class RegistryError(LookupError):
    """A model id could not be resolved, built, or loaded."""


# ----------------------------------------------------------------------
# Kind builders: manifest -> freshly constructed (untrained) module
# ----------------------------------------------------------------------
_BUILDERS: dict[str, Callable] = {}
_KIND_BY_CLASS = {"AirchitectV2": "airchitect_v2",
                  "AirchitectV1": "airchitect_v1",
                  "GANDSE": "gandse",
                  "VAESA": "vaesa"}


def register_builder(kind: str):
    """Register ``fn(manifest, problem) -> Module`` for a model kind."""
    def decorate(fn: Callable) -> Callable:
        _BUILDERS[kind] = fn
        return fn
    return decorate


def model_kind(model) -> str:
    """The manifest ``kind`` string for a module instance."""
    return _KIND_BY_CLASS.get(type(model).__name__, type(model).__name__)


def _config_dict(model) -> dict | None:
    config = getattr(model, "config", None)
    if config is not None and dataclasses.is_dataclass(config):
        return dataclasses.asdict(config)
    return None


@register_builder("airchitect_v2")
def _build_v2(manifest: dict, problem):
    from ..core import AirchitectV2, ModelConfig
    return AirchitectV2(ModelConfig(**manifest["config"]), problem,
                        np.random.default_rng(0))


@register_builder("airchitect_v1")
def _build_v1(manifest: dict, problem):
    from ..baselines import AirchitectV1, V1Config
    config = dict(manifest["config"])
    config["hidden_dims"] = tuple(config["hidden_dims"])
    return AirchitectV1(V1Config(**config), problem, np.random.default_rng(0))


@register_builder("gandse")
def _build_gandse(manifest: dict, problem):
    from ..baselines import GANDSE, GANDSEConfig
    return GANDSE(GANDSEConfig(**manifest["config"]), problem,
                  np.random.default_rng(0))


@register_builder("vaesa")
def _build_vaesa(manifest: dict, problem):
    from ..baselines import VAESA, VAESAConfig
    return VAESA(VAESAConfig(**manifest["config"]), problem,
                 np.random.default_rng(0))


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ModelArtifact:
    """One saved model: its id, on-disk path, and (parsed) manifest.

    ``manifest`` is ``None`` for legacy pre-registry archives.
    """

    model_id: str
    path: Path
    manifest: dict | None

    @property
    def legacy(self) -> bool:
        return self.manifest is None

    @property
    def kind(self) -> str | None:
        return (self.manifest or {}).get("kind")

    @property
    def scale(self) -> str | None:
        return (self.manifest or {}).get("scale")

    @property
    def fingerprint(self) -> dict | None:
        return (self.manifest or {}).get("fingerprint")

    @property
    def metrics(self) -> dict | None:
        return (self.manifest or {}).get("metrics")

    def load_state(self) -> dict[str, np.ndarray]:
        return read_state(self.path)

    def summary(self) -> dict:
        """JSON-ready description (the ``GET /models`` line format)."""
        manifest = self.manifest or {}
        return {"model_id": self.model_id,
                "kind": self.kind,
                "scale": self.scale,
                "legacy": self.legacy,
                "fingerprint": manifest.get("fingerprint"),
                "metrics": manifest.get("metrics"),
                "created_at": manifest.get("created_at")}


class ModelRegistry:
    """Directory of model artifacts.

    Parameters
    ----------
    root:
        Registry directory (created on demand).  Model ids map to
        ``<root>/<model_id>.npz`` and may contain ``/`` separators for
        grouping (e.g. ``small_s0/model_v2``).
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    # Paths and discovery
    # ------------------------------------------------------------------
    def path_for(self, model_id: str) -> Path:
        if not model_id or model_id.startswith(("/", "\\")) \
                or ".." in Path(model_id).parts:
            raise RegistryError(f"invalid model id {model_id!r}")
        return Path(normalise_npz_path(self.root / model_id))

    def has(self, model_id: str) -> bool:
        try:
            return self.path_for(model_id).is_file()
        except RegistryError:
            return False

    def __contains__(self, model_id: str) -> bool:
        return self.has(model_id)

    def artifact(self, model_id: str) -> ModelArtifact:
        """Resolve one id (legacy archives allowed); raises when absent
        or corrupt (the damaged file is quarantined first, so the same id
        resolves to "absent" on the next call instead of failing again).
        """
        path = self.path_for(model_id)
        if not path.is_file():
            raise RegistryError(f"no artifact {model_id!r} in {self.root}")
        try:
            manifest = read_manifest(path)
        except CorruptArtifactError as exc:
            raise RegistryError(f"artifact {model_id!r} is corrupt and was "
                                f"quarantined: {exc}") from exc
        return ModelArtifact(model_id=model_id, path=path, manifest=manifest)

    def list(self) -> list[ModelArtifact]:
        """Every *manifested* artifact under the root, sorted by id.

        Plain ``.npz`` files without an embedded manifest (datasets,
        checkpoints, pre-registry models) are not listed — they are not
        self-describing — but remain loadable by id via
        :meth:`load_into`.
        """
        artifacts = []
        for path in sorted(self.root.rglob("*.npz")):
            try:
                manifest = read_manifest(path)
            except CorruptArtifactError as exc:
                # read_manifest already renamed the file to .corrupt, so
                # discovery will not trip on it again.
                get_logger("registry").warning("skipping corrupt artifact: "
                                               "%s", exc)
                continue
            except (OSError, ValueError, zipfile.BadZipFile,
                    json.JSONDecodeError):  # unreadable/foreign archive
                continue
            if manifest is None:
                continue
            model_id = str(path.relative_to(self.root))[:-len(".npz")]
            artifacts.append(ModelArtifact(model_id=model_id, path=path,
                                           manifest=manifest))
        return artifacts

    def ids(self) -> list[str]:
        return [a.model_id for a in self.list()]

    # ------------------------------------------------------------------
    # Saving
    # ------------------------------------------------------------------
    def save(self, model, model_id: str, *, scale: str | None = None,
             fingerprint: dict | None = None, metrics: dict | None = None,
             extra: dict | None = None) -> ModelArtifact:
        """Persist a module as a manifested artifact (atomic write).

        The manifest records the model kind and config (so :meth:`load`
        can rebuild it), plus whatever provenance the caller supplies:
        the experiment ``scale`` name, a training ``fingerprint``
        (seed, epochs, dataset identity, ...) and evaluation ``metrics``.
        """
        manifest = {"format_version": FORMAT_VERSION,
                    "kind": model_kind(model),
                    "model_id": model_id,
                    "config": _config_dict(model),
                    "scale": scale,
                    "fingerprint": fingerprint,
                    "metrics": metrics,
                    "created_at": time.time()}
        if extra:
            manifest.update(extra)
        path = self.path_for(model_id)
        write_artifact(path, model.state_dict(), manifest)
        return ModelArtifact(model_id=model_id, path=path, manifest=manifest)

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def load_into(self, model_id: str, module):
        """Load an artifact's weights into a caller-built module.

        Works for legacy (manifest-less) archives too; keys and shapes
        are checked strictly by ``Module.load_state_dict``, so this is
        bit-identical to the old ``load_module`` path.
        """
        module.load_state_dict(self.artifact(model_id).load_state())
        return module

    def load(self, model_id: str, problem=None):
        """Rebuild a model from its manifest and load its weights.

        Requires a manifested artifact whose ``kind`` has a registered
        builder; ``problem`` defaults to the canonical
        :class:`~repro.dse.DSEProblem`.  The model is returned in eval
        mode.  Each call builds a fresh instance.
        """
        artifact = self.artifact(model_id)
        if artifact.legacy:
            raise RegistryError(
                f"artifact {model_id!r} has no manifest (pre-registry "
                f"archive); rebuild the module yourself and use load_into")
        builder = _BUILDERS.get(artifact.kind)
        if builder is None:
            raise RegistryError(f"artifact {model_id!r} has unknown kind "
                                f"{artifact.kind!r}; no builder registered")
        if problem is None:
            from ..dse import DSEProblem
            problem = DSEProblem()
        model = builder(artifact.manifest, problem)
        try:
            model.load_state_dict(artifact.load_state())
        except CorruptArtifactError as exc:
            raise RegistryError(f"artifact {model_id!r} is corrupt and was "
                                f"quarantined: {exc}") from exc
        model.eval()
        return model

    def delete(self, model_id: str) -> None:
        """Remove an artifact from disk."""
        path = self.path_for(model_id)
        if path.is_file():
            path.unlink()
