"""The version is written twice, in pyproject.toml and as melodykit.__version__; they must agree."""

import re
from pathlib import Path

import melodykit


def test_package_version_matches_pyproject():
    # Parsed by hand: tomllib is Python 3.11+, and 3.10 is supported.
    text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    project = text.split("\n[project]\n", 1)[1].split("\n[", 1)[0]
    assert re.findall(r'^version\s*=\s*"([^"]*)"\s*$', project, re.MULTILINE) == [melodykit.__version__]
