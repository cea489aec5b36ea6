import pytest
import scipy.sparse.linalg as spla


@pytest.fixture
def splu_calls(monkeypatch):
    """(matrix, permc_spec) of every splu call made during the test."""
    calls = []
    real = spla.splu

    def recording(A, *args, **kwargs):
        calls.append((A.copy(), kwargs.get("permc_spec")))
        return real(A, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", recording)
    return calls
