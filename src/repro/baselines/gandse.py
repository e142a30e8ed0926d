"""GANDSE baseline [16]: GAN-based design space exploration.

GANDSE trains a conditional generator that, given workload features (and a
noise vector), emits a design point meeting the optimisation objective; a
discriminator judges (features, design) pairs against the dataset of
optimal designs.  The paper finds GANDSE more accurate than AIRCHITECT v1
but "limited by the large unconstrained learning problem due to its
generative approach".

Implementation notes
--------------------
* Designs are represented as normalised (pe, l2) choice indices in [0, 1]².
* Non-saturating GAN losses; a small L1 reconstruction term on the
  generator (pix2pix-style) stabilises adversarial training at this scale,
  standard practice for conditional design generation.
* Inference draws ``n_candidates`` noise samples per workload and keeps
  the design the discriminator scores most realistic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import nn
from ..dse import DSEDataset, DSEProblem
from ..train import OptimSpec, TrainLoop, TrainTask

__all__ = ["GANDSEConfig", "GANDSE", "train_gandse"]


@dataclass(frozen=True)
class GANDSEConfig:
    """GANDSE hyper-parameters."""

    noise_dim: int = 8
    hidden: int = 128
    epochs: int = 30
    batch_size: int = 256
    lr_generator: float = 1e-3
    lr_discriminator: float = 5e-4
    recon_weight: float = 4.0
    n_candidates: int = 16
    grad_clip: float = 5.0
    seed: int = 0


class _Generator(nn.Module):
    def __init__(self, feat_dim: int, noise_dim: int, hidden: int,
                 rng: np.random.Generator):
        super().__init__()
        self.net = nn.Sequential(
            nn.Linear(feat_dim + noise_dim, hidden, rng), nn.ReLU(),
            nn.Linear(hidden, hidden, rng), nn.ReLU(),
            nn.Linear(hidden, 2, rng), nn.Sigmoid(),
        )

    def forward(self, feats: nn.Tensor, noise: nn.Tensor) -> nn.Tensor:
        return self.net(nn.concat([feats, noise], axis=1))


class _Discriminator(nn.Module):
    def __init__(self, feat_dim: int, hidden: int, rng: np.random.Generator):
        super().__init__()
        self.net = nn.Sequential(
            nn.Linear(feat_dim + 2, hidden, rng), nn.ReLU(),
            nn.Linear(hidden, hidden, rng), nn.ReLU(),
            nn.Linear(hidden, 1, rng),
        )

    def forward(self, feats: nn.Tensor, designs: nn.Tensor) -> nn.Tensor:
        return self.net(nn.concat([feats, designs], axis=1)).squeeze(-1)


class GANDSE(nn.Module):
    """Conditional GAN for one-shot DSE."""

    def __init__(self, config: GANDSEConfig, problem: DSEProblem,
                 rng: np.random.Generator):
        super().__init__()
        self.config = config
        self.problem = problem
        feat_dim = 3 + problem.bounds.n_dataflows
        self.generator = _Generator(feat_dim, config.noise_dim, config.hidden, rng)
        self.discriminator = _Discriminator(feat_dim, config.hidden, rng)
        self._rng = np.random.default_rng(config.seed + 1)

    # ------------------------------------------------------------------
    def normalise_labels(self, dataset: DSEDataset) -> np.ndarray:
        space = self.problem.space
        return np.stack([dataset.pe_idx / max(space.n_pe - 1, 1),
                         dataset.l2_idx / max(space.n_l2 - 1, 1)], axis=1)

    def predict_indices(self, inputs: np.ndarray,
                        batch_size: int = 1024) -> tuple[np.ndarray, np.ndarray]:
        """Generate-then-validate inference.

        For each workload, sample ``n_candidates`` designs from the
        generator, expand each to its four surrounding grid points (the
        design space is discrete; the generator is continuous), and keep
        the candidate the discriminator scores most realistic.
        """
        self.eval()
        inputs = np.atleast_2d(np.asarray(inputs))
        cfg = self.config
        space = self.problem.space
        pe_out = np.empty(len(inputs), dtype=np.int64)
        l2_out = np.empty(len(inputs), dtype=np.int64)
        with nn.no_grad():
            for start in range(0, len(inputs), batch_size):
                chunk = inputs[start:start + batch_size]
                feats = self.problem.featurize(chunk)
                n = len(chunk)
                rep = np.repeat(feats, cfg.n_candidates, axis=0)
                noise = self._rng.normal(size=(len(rep), cfg.noise_dim))
                raw = self.generator(nn.Tensor(rep), nn.Tensor(noise)).numpy()

                # Snap each generated design to nearby grid points (nearest
                # plus +/-1 jitter along PE, the high-resolution axis); the
                # matching-aware discriminator arbitrates between candidates.
                pe_base = np.rint(raw[:, 0] * (space.n_pe - 1))
                l2_base = np.rint(raw[:, 1] * (space.n_l2 - 1))
                jitter = self._rng.integers(-1, 2, size=pe_base.shape)
                cand_pe = np.clip(
                    np.stack([pe_base, pe_base + jitter], axis=1),
                    0, space.n_pe - 1).reshape(n, -1)
                cand_l2 = np.clip(
                    np.stack([l2_base, l2_base], axis=1),
                    0, space.n_l2 - 1).reshape(n, -1)
                designs = np.stack([
                    cand_pe / max(space.n_pe - 1, 1),
                    cand_l2 / max(space.n_l2 - 1, 1)], axis=2)

                n_total = designs.shape[1]
                rep_all = np.repeat(feats, n_total, axis=0)
                scores = self.discriminator(
                    nn.Tensor(rep_all),
                    nn.Tensor(designs.reshape(-1, 2))).numpy()
                pick = scores.reshape(n, n_total).argmax(axis=1)
                rows = np.arange(n)
                pe_out[start:start + n] = cand_pe[rows, pick].astype(np.int64)
                l2_out[start:start + n] = cand_l2[rows, pick].astype(np.int64)
        return pe_out, l2_out


class _GANDSETask(TrainTask):
    """Alternating discriminator/generator steps — the multi-optimiser case
    of the unified runtime (two :class:`OptimSpec` slots, two updates per
    batch)."""

    name = "gandse"
    history_keys = ("g_loss", "d_loss")

    def __init__(self, model: GANDSE, dataset: DSEDataset):
        self.model = model
        self.dataset = dataset
        self.epochs = model.config.epochs
        self.seed = model.config.seed

    def loader(self, rng: np.random.Generator) -> nn.DataLoader:
        cfg = self.model.config
        designs = self.model.normalise_labels(self.dataset)
        data = nn.ArrayDataset(self.dataset.inputs, designs)
        return nn.DataLoader(data, cfg.batch_size, shuffle=True, rng=rng)

    def optim_specs(self) -> dict[str, OptimSpec]:
        cfg = self.model.config
        return {
            "generator": OptimSpec(self.model.generator.parameters(),
                                   cfg.lr_generator, grad_clip=cfg.grad_clip),
            "discriminator": OptimSpec(self.model.discriminator.parameters(),
                                       cfg.lr_discriminator,
                                       grad_clip=cfg.grad_clip),
        }

    def batch_step(self, batch, step, rng) -> dict[str, float]:
        model = self.model
        cfg = model.config
        xb, real = batch
        feats = nn.Tensor(model.problem.featurize(xb))
        batch_n = len(xb)

        # --- Discriminator step -------------------------------------
        # Positives: (features, optimal design).  Negatives: generator
        # fakes AND matching-aware mismatches — optimal designs paired
        # with the wrong workload (shuffled) — so D learns *conditioned*
        # optimality rather than marginal design realism.
        noise = nn.Tensor(rng.normal(size=(batch_n, cfg.noise_dim)))
        fake = model.generator(feats, noise).detach()
        mismatched = real[rng.permutation(batch_n)]
        d_real = model.discriminator(feats, nn.Tensor(real))
        d_fake = model.discriminator(feats, fake)
        d_mismatch = model.discriminator(feats, nn.Tensor(mismatched))
        d_loss = (nn.binary_cross_entropy_with_logits(d_real, np.ones(batch_n)).mean()
                  + nn.binary_cross_entropy_with_logits(d_fake, np.zeros(batch_n)).mean()
                  + nn.binary_cross_entropy_with_logits(d_mismatch, np.zeros(batch_n)).mean())
        step.apply(d_loss, "discriminator")

        # --- Generator step: fool D + reconstruct optimal designs ---
        noise = nn.Tensor(rng.normal(size=(batch_n, cfg.noise_dim)))
        gen = model.generator(feats, noise)
        d_gen = model.discriminator(feats, gen)
        adv = nn.binary_cross_entropy_with_logits(d_gen, np.ones(batch_n)).mean()
        recon = (gen - nn.Tensor(real)).abs().mean()
        g_loss = adv + recon * cfg.recon_weight
        step.apply(g_loss, "generator")

        return {"g_loss": g_loss.item(), "d_loss": d_loss.item()}

    def epoch_message(self, history) -> str:
        return (f"G={history['g_loss'][-1]:.4f} "
                f"D={history['d_loss'][-1]:.4f}")


def train_gandse(model: GANDSE, dataset: DSEDataset, verbose: bool = False,
                 callbacks=(), checkpoint_path=None, checkpoint_every: int = 1,
                 resume: bool = True) -> dict:
    """Adversarial training; returns per-epoch generator/discriminator losses."""
    loop = TrainLoop(_GANDSETask(model, dataset), callbacks=callbacks)
    return loop.fit(verbose=verbose, checkpoint_path=checkpoint_path,
                    checkpoint_every=checkpoint_every, resume=resume)
