"""Thread-facing process state in ``repro.nn``: the per-thread grad mode
and the ref-counted one-BLAS-thread scope."""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro import nn
from repro.nn.tensor import is_grad_enabled

needs_blas_control = pytest.mark.skipif(
    nn.blas_threads() is None,
    reason="numpy's OpenBLAS thread controls are not available")


def test_no_grad_on_one_thread_leaves_another_recording():
    """An inference thread inside ``no_grad`` does not switch off graph
    recording for a thread that is training at the same moment."""
    inside, release = threading.Event(), threading.Event()
    seen = []

    def infer():
        with nn.no_grad():
            seen.append(is_grad_enabled())
            inside.set()
            release.wait(timeout=30)

    worker = threading.Thread(target=infer)
    worker.start()
    try:
        assert inside.wait(timeout=30)
        assert is_grad_enabled()
        w = nn.Tensor(np.ones((2, 2)), requires_grad=True)
        (w * 2.0).sum().backward()
        np.testing.assert_array_equal(w.grad, np.full((2, 2), 2.0))
    finally:
        release.set()
        worker.join(timeout=30)
    assert not worker.is_alive()
    assert seen == [False]
    assert is_grad_enabled()


def test_new_threads_start_with_grad_enabled():
    seen = []
    with nn.no_grad():
        worker = threading.Thread(target=lambda: seen.append(is_grad_enabled()))
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive()
        assert not is_grad_enabled()
    assert seen == [True]


@needs_blas_control
class TestOneBlasThread:
    def test_nested_scopes_hold_one_thread_and_restore(self):
        before = nn.blas_threads()
        with nn.one_blas_thread():
            assert nn.blas_threads() == 1
            with nn.one_blas_thread():
                assert nn.blas_threads() == 1
            assert nn.blas_threads() == 1
        assert nn.blas_threads() == before

    def test_restored_when_the_body_raises(self):
        before = nn.blas_threads()
        with pytest.raises(RuntimeError):
            with nn.one_blas_thread():
                raise RuntimeError("tile failed")
        assert nn.blas_threads() == before

    def test_overlapping_scopes_on_two_threads(self):
        """The count is restored only when the last holder leaves, in
        whichever order the threads exit."""
        before = nn.blas_threads()
        first_in, second_out = threading.Event(), threading.Event()
        seen = []

        def first():
            with nn.one_blas_thread():
                first_in.set()
                second_out.wait(timeout=30)
                seen.append(nn.blas_threads())

        worker = threading.Thread(target=first)
        worker.start()
        assert first_in.wait(timeout=30)
        with nn.one_blas_thread():
            seen.append(nn.blas_threads())
        second_out.set()
        worker.join(timeout=30)
        assert not worker.is_alive()
        assert seen == [1, 1]
        assert nn.blas_threads() == before

    def test_many_threads_entering_and_leaving(self):
        """Stress: with more threads than cores and a short switch
        interval, no holder ever sees more than one thread and the
        last one out restores the count (a lost update to the holder
        count would break one or the other)."""
        before = nn.blas_threads()
        seen = set()

        def churn():
            for _ in range(200):
                with nn.one_blas_thread():
                    seen.add(nn.blas_threads())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=churn) for _ in range(8)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert seen == {1}
        assert nn.blas_threads() == before
