"""``repro.nn`` — a compact numpy deep-learning substrate.

Implements everything the AIRCHITECT v2 reproduction needs from a DL
framework: an autograd :class:`Tensor`, transformer layers, losses
(including the paper's InfoNCE and Unification losses), optimisers and data
pipelines, so the reproduction needs numpy and no DL framework.

Importing the package pins glibc's malloc policy for the whole process
(:func:`_retain_freed_heap`), so training steps and inference tiles
reuse their freed temporaries' pages instead of faulting them in.
:class:`one_blas_thread` holds numpy's OpenBLAS at one thread while
inference tiles run on several threads of their own; training keeps
OpenBLAS's default threads.
"""

import functools
import os
import threading

from . import functional, fused, init
from .attention import (DownsampleUnit, FeedForward, MultiHeadSelfAttention,
                        TransformerBlock, TransformerStack, UpsampleUnit)
from .data import ArrayDataset, DataLoader, train_test_split
from .layers import (Dropout, Embedding, GELU, Identity, LayerNorm, Linear,
                     ReLU, Sigmoid, Tanh)
from .losses import (InfoNCELoss, UnificationLoss,
                     binary_cross_entropy_with_logits, cross_entropy,
                     l1_loss, mse_loss)
from .module import Module, ModuleList, Parameter, Sequential
from .optim import (Adam, AdamW, LRScheduler, Optimizer, SGD, clip_grad_norm,
                    cosine_schedule, step_schedule, warmup_cosine_schedule)
from .serialization import load_module, save_module
from .tensor import Tensor, as_tensor, concat, no_grad, stack, where

__all__ = [
    "Tensor", "as_tensor", "concat", "stack", "where", "no_grad",
    "functional", "fused", "init",
    "Module", "ModuleList", "Parameter", "Sequential",
    "Linear", "LayerNorm", "Embedding", "Dropout",
    "ReLU", "GELU", "Tanh", "Sigmoid", "Identity",
    "MultiHeadSelfAttention", "FeedForward", "TransformerBlock",
    "TransformerStack", "DownsampleUnit", "UpsampleUnit",
    "mse_loss", "l1_loss", "cross_entropy",
    "binary_cross_entropy_with_logits", "InfoNCELoss", "UnificationLoss",
    "Optimizer", "SGD", "Adam", "AdamW", "LRScheduler", "clip_grad_norm",
    "cosine_schedule", "step_schedule", "warmup_cosine_schedule",
    "ArrayDataset", "DataLoader", "train_test_split",
    "save_module", "load_module", "blas_threads", "one_blas_thread",
]


def _retain_freed_heap() -> None:
    """Keep freed heap memory in the process for the next step or tile.

    glibc's adaptive thresholds follow the largest block freed so far:
    once a step's ~1 MiB temporaries come from the heap, its top is
    handed back to the OS whenever ~2 MiB of it is free, which the
    temporaries cross every layer.  A warm ``small`` stage-1 step thus
    re-faulted 4k-15k zeroed pages, and a sweep ~20 per row.  Fixed
    thresholds serve blocks up to 32 MiB from the heap and trim only
    above 64 MiB free.  One arena serves every thread, so inference
    tiles on several threads reuse the same pinned heap rather than each
    growing an arena of its own.  A no-op off Linux and where the C
    library has no ``mallopt``; it never stops the import.
    """
    import ctypes
    import sys
    if not sys.platform.startswith("linux"):
        return
    m_trim_threshold, m_mmap_threshold, m_arena_max = -1, -3, -8
    try:
        libc = ctypes.CDLL(None)
        libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        libc.mallopt.restype = ctypes.c_int
        libc.mallopt(m_mmap_threshold, 32 << 20)
        libc.mallopt(m_trim_threshold, 64 << 20)
        libc.mallopt(m_arena_max, 1)
    except (OSError, AttributeError, TypeError):
        pass


_retain_freed_heap()


@functools.cache
def _openblas():
    """``(get, set)`` thread-count functions of numpy's bundled OpenBLAS
    (``scipy_openblas64``), found among the libraries this process has
    already loaded; ``None`` where there is no such library."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            path = next(line.split()[-1] for line in fh
                        if "scipy_openblas64" in line)
        lib = ctypes.CDLL(path)
        get = lib.scipy_openblas_get_num_threads64_
        set_ = lib.scipy_openblas_set_num_threads64_
    except (OSError, StopIteration, AttributeError):
        return None
    get.argtypes, get.restype = (), ctypes.c_int
    set_.argtypes, set_.restype = (ctypes.c_int,), None
    return get, set_


_BLAS_LOCK = threading.Lock()
_blas_holders = 0
_blas_restore = 0


def blas_threads() -> int | None:
    """OpenBLAS's current thread count; ``None`` if it cannot be set."""
    controls = _openblas()
    return None if controls is None else controls[0]()


class one_blas_thread:
    """Scope holding OpenBLAS at one thread, ref-counted across threads.

    The first holder to enter sets one thread and the last to leave
    restores the count the first one found, even when the body raises.
    Code that fans work out over its own threads holds it, so threads x
    BLAS threads never oversubscribe the cores.  A no-op where
    :func:`blas_threads` is ``None``.
    """

    def __enter__(self):
        global _blas_holders, _blas_restore
        controls = _openblas()
        with _BLAS_LOCK:
            if _blas_holders == 0 and controls is not None:
                _blas_restore = controls[0]()
                controls[1](1)
            _blas_holders += 1
        return self

    def __exit__(self, *exc_info) -> None:
        global _blas_holders
        controls = _openblas()
        with _BLAS_LOCK:
            _blas_holders -= 1
            if _blas_holders == 0 and controls is not None:
                controls[1](_blas_restore)


def _release_blas_scope_in_child() -> None:
    """A forked child has none of its parent's holders: restore the
    count and start the scope afresh."""
    global _BLAS_LOCK, _blas_holders
    _BLAS_LOCK = threading.Lock()
    if _blas_holders and _openblas() is not None:
        _openblas()[1](_blas_restore)
    _blas_holders = 0


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_release_blas_scope_in_child)
