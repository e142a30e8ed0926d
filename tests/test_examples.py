"""Every script under ``examples/`` still imports against the package.

Nothing else runs the examples (each trains or sweeps for minutes), so an
example that names a deleted or renamed API would otherwise rot unseen.
The test imports each one as a module without calling its ``main()``.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples")
                  .glob("*.py"))


def test_examples_found():
    assert EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_imports_and_defines_main(path):
    spec = importlib.util.spec_from_file_location(
        f"examples_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
