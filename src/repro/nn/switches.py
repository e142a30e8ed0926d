"""Stack-backed execution-mode switches for the ``repro.nn`` runtime.

The execution toggle :func:`repro.nn.fused_kernels` is an instance of
:class:`Switch`: a boolean whose current value is the top of a stack of
scoped overrides.  Entering a scope pushes a value, leaving it pops —
and the scope object is exception-safe, so a test (or a crashed fit)
can never leak a disabled fast path into the rest of the process.
``tests/conftest.py`` additionally snapshots and restores the switch
around each test.
"""

from __future__ import annotations

__all__ = ["Switch"]


class _Scope:
    """One pushed override; usable as a context manager."""

    __slots__ = ("_switch", "_token")

    def __init__(self, switch: "Switch", value: bool):
        self._switch = switch
        switch._stack.append(bool(value))
        self._token = len(switch._stack)

    def __enter__(self) -> "_Scope":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self) -> None:
        """Pop this override (and anything pushed above it) exactly once."""
        stack = self._switch._stack
        if self._token and len(stack) >= self._token > 1:
            del stack[self._token - 1:]
        self._token = 0


class Switch:
    """A named boolean toggle with scoped, exception-safe overrides.

    ``switch.enabled`` reads the innermost value; calling the switch
    returns a scope object that pushes an override and pops it on
    ``__exit__`` (or :meth:`_Scope.close`), even when the body raises.
    """

    __slots__ = ("name", "_stack")

    def __init__(self, default: bool, name: str = "switch"):
        self.name = name
        self._stack: list[bool] = [bool(default)]

    @property
    def enabled(self) -> bool:
        return self._stack[-1]

    def __call__(self, enabled: bool = True) -> _Scope:
        return _Scope(self, enabled)

    def snapshot(self) -> tuple[bool, ...]:
        """The full override stack (for save/restore around tests)."""
        return tuple(self._stack)

    def restore(self, state: tuple[bool, ...]) -> None:
        self._stack[:] = state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Switch({self.name}={self.enabled}, depth={len(self._stack)})"
