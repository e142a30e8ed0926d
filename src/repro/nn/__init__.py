"""``repro.nn`` — a compact numpy deep-learning substrate.

Implements everything the AIRCHITECT v2 reproduction needs from a DL
framework: an autograd :class:`Tensor`, transformer layers, losses
(including the paper's InfoNCE and Unification losses), optimisers and data
pipelines.  See DESIGN.md §2 for why this substitutes for PyTorch.

Importing the package pins glibc's malloc thresholds for the whole
process (:func:`_retain_freed_heap`), so training steps and inference
tiles reuse their freed temporaries' pages instead of faulting them in.
"""

from . import functional, fused, init
from .attention import (DownsampleUnit, FeedForward, MultiHeadSelfAttention,
                        TransformerBlock, TransformerStack, UpsampleUnit)
from .fused import fused_enabled, fused_kernels
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
    "functional", "fused", "fused_enabled", "fused_kernels", "init",
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
    "save_module", "load_module",
]


def _retain_freed_heap() -> None:
    """Keep freed heap memory in the process for the next step or tile.

    glibc's adaptive thresholds follow the largest block freed so far:
    once a step's ~1 MiB temporaries come from the heap, its top is
    handed back to the OS whenever ~2 MiB of it is free, which the
    temporaries cross every layer.  A warm ``small`` stage-1 step thus
    re-faulted 4k-15k zeroed pages, and a sweep ~20 per row.  Fixed
    thresholds serve blocks up to 32 MiB from the heap and trim only
    above 64 MiB free.  A no-op off Linux and where the C library has
    no ``mallopt``; it never stops the import.
    """
    import ctypes
    import sys
    if not sys.platform.startswith("linux"):
        return
    m_trim_threshold, m_mmap_threshold = -1, -3
    try:
        libc = ctypes.CDLL(None)
        libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        libc.mallopt.restype = ctypes.c_int
        libc.mallopt(m_mmap_threshold, 32 << 20)
        libc.mallopt(m_trim_threshold, 64 << 20)
    except (OSError, AttributeError, TypeError):
        pass


_retain_freed_heap()
