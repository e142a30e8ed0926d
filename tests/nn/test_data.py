"""Data pipeline: ArrayDataset, DataLoader, splits, serialization."""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro import nn

from .reference import reference_path


class TestArrayDataset:
    def test_len_and_indexing(self, rng):
        x = rng.normal(size=(10, 3))
        y = np.arange(10)
        ds = nn.ArrayDataset(x, y)
        assert len(ds) == 10
        xs, ys = ds[np.array([1, 3])]
        np.testing.assert_array_equal(xs, x[[1, 3]])
        np.testing.assert_array_equal(ys, [1, 3])

    def test_mismatched_lengths_raise(self, rng):
        with pytest.raises(ValueError):
            nn.ArrayDataset(np.ones((5, 2)), np.ones(4))

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            nn.ArrayDataset()

    def test_subset(self, rng):
        ds = nn.ArrayDataset(np.arange(10), np.arange(10) * 2)
        sub = ds.subset(np.array([0, 5]))
        assert len(sub) == 2
        np.testing.assert_array_equal(sub.arrays[1], [0, 10])


class TestDataLoader:
    def test_covers_all_rows_once(self, rng):
        ds = nn.ArrayDataset(np.arange(23))
        loader = nn.DataLoader(ds, batch_size=5)
        seen = np.concatenate([b[0] for b in loader])
        np.testing.assert_array_equal(np.sort(seen), np.arange(23))

    def test_len_with_and_without_drop_last(self, rng):
        ds = nn.ArrayDataset(np.arange(23))
        assert len(nn.DataLoader(ds, 5)) == 5
        assert len(nn.DataLoader(ds, 5, drop_last=True)) == 4

    def test_drop_last_sizes(self, rng):
        ds = nn.ArrayDataset(np.arange(23))
        sizes = [len(b[0]) for b in nn.DataLoader(ds, 5, drop_last=True)]
        assert sizes == [5, 5, 5, 5]

    def test_shuffle_changes_order_but_not_content(self, rng):
        ds = nn.ArrayDataset(np.arange(100))
        loader = nn.DataLoader(ds, 100, shuffle=True, rng=rng)
        (batch,) = next(iter(loader))
        assert not np.array_equal(batch, np.arange(100))
        np.testing.assert_array_equal(np.sort(batch), np.arange(100))

    def test_shuffle_requires_rng(self):
        ds = nn.ArrayDataset(np.arange(4))
        with pytest.raises(ValueError):
            nn.DataLoader(ds, 2, shuffle=True)

    def test_reshuffles_between_epochs(self, rng):
        ds = nn.ArrayDataset(np.arange(50))
        loader = nn.DataLoader(ds, 50, shuffle=True, rng=rng)
        first = next(iter(loader))[0].copy()
        second = next(iter(loader))[0].copy()
        assert not np.array_equal(first, second)

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            nn.DataLoader(nn.ArrayDataset(np.arange(4)), 0)


def _path(fast):
    """The loader's own zero-copy path, or the reference's copies."""
    return contextlib.nullcontext() if fast else reference_path()


class TestDataLoaderFastPath:
    """The zero-copy batch path: the reference's batches, loud on
    mutation."""

    def _batches(self, fast, seed=123, n=37, bs=8, shuffle=True,
                 drop_last=False):
        ds = nn.ArrayDataset(np.arange(n, dtype=np.float64),
                             np.arange(n) * 2.0)
        loader = nn.DataLoader(ds, bs, shuffle=shuffle,
                               rng=np.random.default_rng(seed),
                               drop_last=drop_last)
        with _path(fast):
            return [tuple(np.array(a, copy=True) for a in b) for b in loader]

    @pytest.mark.parametrize("shuffle", [True, False])
    @pytest.mark.parametrize("drop_last", [True, False])
    def test_same_seed_same_batches_either_path(self, shuffle, drop_last):
        slow = self._batches(False, shuffle=shuffle, drop_last=drop_last)
        fast = self._batches(True, shuffle=shuffle, drop_last=drop_last)
        assert len(slow) == len(fast)
        for sb, fb in zip(slow, fast):
            for sa, fa in zip(sb, fb):
                np.testing.assert_array_equal(fa, sa)

    def test_same_seed_same_order_across_epochs(self):
        """Both paths consume the rng identically, epoch after epoch."""
        ds = nn.ArrayDataset(np.arange(20, dtype=np.float64))
        epochs_of = {}
        for fast in (False, True):
            loader = nn.DataLoader(ds, 6, shuffle=True,
                                   rng=np.random.default_rng(7))
            with _path(fast):
                epochs_of[fast] = [[b[0].copy() for b in loader]
                                   for _ in range(3)]
        for slow_epoch, fast_epoch in zip(epochs_of[False], epochs_of[True]):
            for sb, fb in zip(slow_epoch, fast_epoch):
                np.testing.assert_array_equal(fb, sb)

    def test_fast_batches_are_readonly(self):
        ds = nn.ArrayDataset(np.arange(10, dtype=np.float64))
        loader = nn.DataLoader(ds, 4)
        (batch,) = next(iter(loader))
        with pytest.raises(ValueError):
            batch[0] = 99.0

    def test_mutation_cannot_corrupt_dataset(self):
        """Even on the no-copy path the dataset's arrays stay pristine."""
        data = np.arange(10, dtype=np.float64)
        ds = nn.ArrayDataset(data)
        loader = nn.DataLoader(ds, 4)
        for (batch,) in loader:
            with pytest.raises(ValueError):
                batch += 1.0
        np.testing.assert_array_equal(ds.arrays[0], np.arange(10))

    def test_slow_path_batches_stay_writable(self):
        """The reference path keeps the historical copy-per-batch
        contract."""
        ds = nn.ArrayDataset(np.arange(10, dtype=np.float64))
        loader = nn.DataLoader(ds, 4)
        with reference_path():
            (batch,) = next(iter(loader))
        batch[0] = 99.0  # a copy — mutating it must not touch the dataset
        np.testing.assert_array_equal(ds.arrays[0], np.arange(10))


class TestSplit:
    def test_fraction_respected(self, rng):
        ds = nn.ArrayDataset(np.arange(100))
        train, test = nn.train_test_split(ds, 0.2, rng)
        assert len(test) == 20 and len(train) == 80

    def test_partition_is_disjoint_and_complete(self, rng):
        ds = nn.ArrayDataset(np.arange(50))
        train, test = nn.train_test_split(ds, 0.3, rng)
        merged = np.sort(np.concatenate([train.arrays[0], test.arrays[0]]))
        np.testing.assert_array_equal(merged, np.arange(50))

    def test_invalid_fraction(self, rng):
        ds = nn.ArrayDataset(np.arange(10))
        with pytest.raises(ValueError):
            nn.train_test_split(ds, 1.5, rng)


class TestSerialization:
    def test_save_load_roundtrip(self, rng, tmp_path):
        model = nn.Sequential(nn.Linear(3, 4, rng), nn.ReLU(),
                              nn.Linear(4, 2, rng))
        path = tmp_path / "model.npz"
        nn.save_module(model, path)
        clone = nn.Sequential(nn.Linear(3, 4, np.random.default_rng(1)),
                              nn.ReLU(),
                              nn.Linear(4, 2, np.random.default_rng(1)))
        nn.load_module(clone, path)
        x = rng.normal(size=(5, 3))
        with nn.no_grad():
            np.testing.assert_array_equal(model(nn.Tensor(x)).numpy(),
                                          clone(nn.Tensor(x)).numpy())

    def test_load_appends_npz_suffix(self, rng, tmp_path):
        model = nn.Linear(2, 2, rng)
        nn.save_module(model, tmp_path / "weights")
        nn.load_module(model, tmp_path / "weights")  # no suffix given
