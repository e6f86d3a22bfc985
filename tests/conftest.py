"""Shared fixtures."""

import os
from pathlib import Path

import pytest

import videosum


@pytest.fixture
def child_env(tmp_path):
    """Environment for a child Python that imports videosum from this checkout.

    Warnings are errors there too, as in this suite (see pyproject.toml).
    """
    env = dict(os.environ)
    env["PYTHONWARNINGS"] = "error"
    src = str(Path(videosum.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env["TMPDIR"] = str(tmp_path)
    return env
