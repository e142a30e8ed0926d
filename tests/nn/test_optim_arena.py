"""Flat-arena optimisers: bit-identical steps, checkpoint compatibility.

The arena packs parameters/gradients/moments into contiguous buffers, but
the numeric contract is unchanged: every update must be bit-identical to
the per-parameter reference loop, ``state_dict`` keeps the pre-arena
format (per-parameter arrays), and snapshots written by either
implementation must load into the other and resume bit-identically.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn

from .reference import reference_path


def _model(seed=0):
    rng = np.random.default_rng(seed)
    return nn.Sequential(nn.Linear(6, 8, rng), nn.Tanh(), nn.Linear(8, 3, rng))


def _steps(model, opt, n, seed=42, clip=None):
    rng = np.random.default_rng(seed)
    losses = []
    for _ in range(n):
        x = nn.Tensor(rng.normal(size=(12, 6)))
        y = rng.normal(size=(12, 3))
        loss = nn.mse_loss(model(x), y)
        opt.zero_grad()
        loss.backward()
        if clip is not None:
            opt.clip_grad_norm(clip)
        opt.step()
        losses.append(loss.item())
    return losses


@pytest.mark.parametrize("opt_cls,kwargs", [
    (nn.SGD, {"lr": 0.05, "momentum": 0.9}),
    (nn.SGD, {"lr": 0.05, "weight_decay": 0.01}),
    (nn.Adam, {"lr": 1e-2}),
    (nn.Adam, {"lr": 1e-2, "weight_decay": 0.01}),
    (nn.AdamW, {"lr": 1e-2, "weight_decay": 0.05}),
])
def test_arena_step_bit_identical_to_reference(opt_cls, kwargs):
    ref_model = _model()
    with reference_path():                      # no arena
        ref_opt = opt_cls(ref_model.parameters(), **kwargs)
        ref_losses = _steps(ref_model, ref_opt, 5, clip=1.0)
    arena_model = _model()
    arena_opt = opt_cls(arena_model.parameters(), **kwargs)
    assert arena_opt._arena is not None
    arena_losses = _steps(arena_model, arena_opt, 5, clip=1.0)
    assert arena_losses == ref_losses
    for p_ref, p_arena in zip(ref_model.parameters(),
                              arena_model.parameters()):
        np.testing.assert_array_equal(p_arena.data, p_ref.data)


@pytest.mark.parametrize("opt_cls,kwargs", [
    (nn.SGD, {"lr": 0.05, "momentum": 0.9}),
    (nn.Adam, {"lr": 1e-2}),
])
def test_state_roundtrip_resumes_bit_identically(opt_cls, kwargs):
    # Uninterrupted run: 8 steps.
    model_a = _model()
    opt_a = opt_cls(model_a.parameters(), **kwargs)
    losses_a = _steps(model_a, opt_a, 4, seed=1)
    snapshot = {"model": model_a.state_dict(), "opt": opt_a.state_dict()}
    losses_a += _steps(model_a, opt_a, 4, seed=2)

    # Interrupted run: restore the snapshot mid-way and continue.
    model_b = _model(seed=99)                    # different init, overwritten
    opt_b = opt_cls(model_b.parameters(), **kwargs)
    model_b.load_state_dict(snapshot["model"])
    opt_b.load_state_dict(snapshot["opt"])
    losses_b = _steps(model_b, opt_b, 4, seed=2)

    assert losses_b == losses_a[4:]
    for p_a, p_b in zip(model_a.parameters(), model_b.parameters()):
        np.testing.assert_array_equal(p_b.data, p_a.data)


def test_pre_arena_snapshot_loads_into_arena_optimizer(tmp_path):
    """A snapshot produced by the reference (pre-arena) implementation —
    per-parameter moment arrays in an .npz — loads into the arena-backed
    optimiser and resumes bit-identically."""
    with reference_path():
        model_ref = _model()
        opt_ref = nn.Adam(model_ref.parameters(), lr=1e-2)
        assert opt_ref._arena is None
        _steps(model_ref, opt_ref, 3, seed=5)
        state = opt_ref.state_dict()
        # Persist exactly as train.checkpoint does: flat arrays in an npz.
        path = tmp_path / "pre_arena.npz"
        np.savez(path, step=np.array(state["step"]),
                 **{f"m{i}": m for i, m in enumerate(state["m"])},
                 **{f"v{i}": v for i, v in enumerate(state["v"])},
                 **{f"p{i}": p.data for i, p in
                    enumerate(model_ref.parameters())})
        ref_tail = _steps(model_ref, opt_ref, 3, seed=6)

    with np.load(path) as archive:
        count = sum(1 for k in archive.files if k.startswith("m"))
        loaded = {"step": int(archive["step"]),
                  "m": [archive[f"m{i}"] for i in range(count)],
                  "v": [archive[f"v{i}"] for i in range(count)],
                  "params": [archive[f"p{i}"] for i in range(count)]}

    model_new = _model(seed=7)
    opt_new = nn.Adam(model_new.parameters(), lr=1e-2)
    assert opt_new._arena is not None
    for p, value in zip(model_new.parameters(), loaded["params"]):
        np.copyto(p.data, value)
    opt_new.load_state_dict({"step": loaded["step"], "m": loaded["m"],
                             "v": loaded["v"]})
    new_tail = _steps(model_new, opt_new, 3, seed=6)
    assert new_tail == ref_tail


def test_arena_survives_model_load_state_dict():
    """model.load_state_dict between steps must not detach the arena."""
    model = _model()
    opt = nn.Adam(model.parameters(), lr=1e-2)
    _steps(model, opt, 2)
    snapshot = model.state_dict()
    _steps(model, opt, 2)
    model.load_state_dict(snapshot)              # in-place restore
    _steps(model, opt, 2)
    arena = opt._arena
    for p, view in zip(arena.parameters, arena.param_views):
        assert p.data is view                    # still arena-backed


def test_arena_falls_back_when_a_parameter_gets_no_grad():
    """Legacy semantics for partially-used parameter sets: parameters
    without gradients are skipped entirely (no moment decay)."""
    used = nn.Parameter(np.ones(4))
    unused = nn.Parameter(np.ones(3))
    opt = nn.Adam([used, unused], lr=0.1)
    loss = (used * 2.0).sum()
    opt.zero_grad()
    loss.backward()
    opt.step()
    np.testing.assert_array_equal(unused.data, np.ones(3))
    np.testing.assert_array_equal(opt._m[1], np.zeros(3))
    assert not np.array_equal(used.data, np.ones(4))


def test_frozen_parameters_are_not_updated():
    frozen = nn.Parameter(np.ones(4))
    frozen.requires_grad = False
    live = nn.Parameter(np.ones(4))
    opt = nn.SGD([live, frozen], lr=0.1)
    loss = (live * frozen).sum()
    opt.zero_grad()
    loss.backward()
    opt.step()
    np.testing.assert_array_equal(frozen.data, np.ones(4))
    assert not np.array_equal(live.data, np.ones(4))


def test_module_clip_grad_norm_matches_optimizer_clip():
    model_a, model_b = _model(), _model()
    opt_a = nn.Adam(model_a.parameters(), lr=1e-2)
    opt_b = nn.Adam(model_b.parameters(), lr=1e-2)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(10, 6))
    y = rng.normal(size=(10, 3))
    for model, opt in ((model_a, opt_a), (model_b, opt_b)):
        loss = nn.mse_loss(model(nn.Tensor(x.copy())), y)
        opt.zero_grad()
        loss.backward()
    norm_a = opt_a.clip_grad_norm(0.5)
    norm_b = nn.clip_grad_norm(model_b.parameters(), 0.5)
    assert norm_a == norm_b
    for p_a, p_b in zip(model_a.parameters(), model_b.parameters()):
        np.testing.assert_array_equal(p_a.grad, p_b.grad)
