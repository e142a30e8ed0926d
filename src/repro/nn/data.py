"""Dataset / DataLoader utilities for numpy-array training data.

Keeps the familiar iteration protocol (``for xb, yb in loader``) while
staying purely numpy: a :class:`ArrayDataset` is a tuple of aligned arrays,
and :class:`DataLoader` yields batches of those arrays (not Tensors — the
training loop decides what becomes a Tensor, since e.g. integer labels stay
numpy).  Batches are zero-copy, read-only views: the epoch's shuffle is
applied once per array and each batch slices the gathered arrays.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = ["ArrayDataset", "DataLoader", "train_test_split"]


class ArrayDataset:
    """Aligned numpy arrays, indexed along their first axis."""

    def __init__(self, *arrays: np.ndarray):
        if not arrays:
            raise ValueError("ArrayDataset needs at least one array")
        n = len(arrays[0])
        for arr in arrays:
            if len(arr) != n:
                raise ValueError("all arrays must share the same first dimension")
        self.arrays = tuple(np.asarray(a) for a in arrays)

    def __len__(self) -> int:
        return len(self.arrays[0])

    def __getitem__(self, index) -> tuple[np.ndarray, ...]:
        return tuple(arr[index] for arr in self.arrays)

    def subset(self, indices: np.ndarray) -> "ArrayDataset":
        """New dataset containing the given rows."""
        return ArrayDataset(*(arr[indices] for arr in self.arrays))


class DataLoader:
    """Mini-batch iterator over an :class:`ArrayDataset`.

    Parameters
    ----------
    dataset:
        Source dataset.
    batch_size:
        Rows per batch.
    shuffle:
        Reshuffle before every epoch using ``rng``.
    rng:
        Generator used for shuffling; required when ``shuffle`` is True.
    drop_last:
        Drop the final short batch (useful for contrastive batches, which
        need enough samples to find positives).

    The per-epoch shuffle permutation is applied once per array (one
    gather per epoch); batches are then contiguous *views* of the
    gathered arrays, with the same values and rng consumption as
    per-batch fancy-index copies (``arr[order][a:b] == arr[order[a:b]]``).
    Views are marked read-only, so a consumer that mutates its batches
    fails loudly instead of silently corrupting neighbours.
    """

    def __init__(self, dataset: ArrayDataset, batch_size: int,
                 shuffle: bool = False, rng: np.random.Generator | None = None,
                 drop_last: bool = False):
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if shuffle and rng is None:
            raise ValueError("shuffle=True requires an rng")
        self.dataset = dataset
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.rng = rng
        self.drop_last = drop_last

    def __len__(self) -> int:
        n = len(self.dataset)
        if self.drop_last:
            return n // self.batch_size
        return (n + self.batch_size - 1) // self.batch_size

    def __iter__(self) -> Iterator[tuple[np.ndarray, ...]]:
        n = len(self.dataset)
        order = np.arange(n)
        if self.shuffle:
            self.rng.shuffle(order)
        stop = (n // self.batch_size) * self.batch_size if self.drop_last else n
        if self.shuffle:
            arrays = tuple(arr[order] for arr in self.dataset.arrays)
        else:
            arrays = self.dataset.arrays
        for start in range(0, stop, self.batch_size):
            batch = []
            for arr in arrays:
                view = arr[start:start + self.batch_size]
                view.flags.writeable = False
                batch.append(view)
            yield tuple(batch)


def train_test_split(dataset: ArrayDataset, test_fraction: float,
                     rng: np.random.Generator) -> tuple[ArrayDataset, ArrayDataset]:
    """Random split into (train, test) with ``test_fraction`` held out."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    n = len(dataset)
    order = rng.permutation(n)
    n_test = max(1, int(round(n * test_fraction)))
    test_idx = order[:n_test]
    train_idx = order[n_test:]
    return dataset.subset(train_idx), dataset.subset(test_idx)
