"""Shared test set-up: CLI subprocesses import the same source tree as the tests."""

import os
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(autouse=True, scope="session")
def _subprocesses_import_src():
    # pyproject's pythonpath reaches only this process; `python -m catschett.cli`
    # children need src/ on PYTHONPATH when the package is not installed
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", path)
        yield
