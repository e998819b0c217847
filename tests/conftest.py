# Keeps tests/ on sys.path so the shared oracle and generator helpers import.

import numpy as np
import pytest


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
