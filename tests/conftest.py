from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from twoneg.algebra import attach_negations
from twoneg.frames import build_subnormal
from twoneg.lattice import build_lattice

FIXTURES = Path(__file__).parent / "fixtures"
TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture
def regenerate(tmp_path):
    """Run a copy of a script from tools/ under tmp_path; returns the
    fixtures directory the copy writes to."""
    def run(name: str) -> Path:
        (tmp_path / "tools").mkdir(exist_ok=True)
        shutil.copy(TOOLS / name, tmp_path / "tools")
        env = dict(os.environ, PYTHONPATH=str(TOOLS.parent / "src"))
        subprocess.run([sys.executable, str(tmp_path / "tools" / name)], check=True,
                       capture_output=True, env=env, timeout=60)
        return tmp_path / "tests" / "fixtures"
    return run


@pytest.fixture(scope="session")
def chain3():
    return build_lattice(["0", "a", "1"], [("0", "a"), ("a", "1")])


@pytest.fixture(scope="session")
def h5():
    return build_lattice(["0", "a", "b", "e", "1"],
                         [("0", "a"), ("0", "b"), ("a", "e"), ("b", "e"), ("e", "1")])


@pytest.fixture(scope="session")
def h6():
    return build_lattice(
        ["0", "y", "z", "w", "x", "1"],
        [("0", "y"), ("0", "z"), ("y", "w"), ("z", "w"), ("z", "x"),
         ("w", "1"), ("x", "1")])


@pytest.fixture
def fork():
    return build_subnormal(["w0", "w1", "w2"], [("w0", "w1"), ("w0", "w2")], ["w2"])


@pytest.fixture(scope="session")
def a_prime(chain3):
    return attach_negations(chain3, 0, name="a_prime")


@pytest.fixture(scope="session")
def b_prime(chain3):
    return attach_negations(chain3, 2, name="b_prime")
