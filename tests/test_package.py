import pathlib

import pytest

import driftfv

tomllib = pytest.importorskip("tomllib")


def test_version_matches_pyproject():
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as f:
        assert driftfv.__version__ == tomllib.load(f)["project"]["version"]
