"""Shared pytest configuration for the magiclbm test suite."""

import os
import pathlib

from hypothesis import settings

settings.register_profile("suite", max_examples=50, deadline=None)
settings.load_profile("suite")

# pytest's ``pythonpath`` setting reaches this process only; the tests that
# start a Python child process need the same source tree on its path.
_SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (_SRC, os.environ.get("PYTHONPATH")))
)
