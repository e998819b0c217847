# Keeps tests/ on sys.path so the shared oracle and generator helpers import.

import os
from pathlib import Path

import numpy as np
import pytest

import expbases


@pytest.fixture
def eigvalsh_dtypes(monkeypatch):
    """The dtype of every operand np.linalg.eigvalsh receives, in call order:
    float64 on the real route of eigen_bounds, complex on the other."""
    dtypes = []
    true_eigvalsh = np.linalg.eigvalsh

    def eigvalsh(a, *args, **kwargs):
        dtypes.append(a.dtype)
        return true_eigvalsh(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    return dtypes


@pytest.fixture
def child_env():
    """The environment of a child interpreter that imports the expbases
    package these tests import."""
    src = Path(expbases.__file__).resolve().parent.parent
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
