import re
from pathlib import Path

import ethcluster

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_version_matches_pyproject():
    # a regex, not tomllib: tomllib is 3.11+ and the package supports 3.10
    text = PYPROJECT.read_text("utf-8")
    section = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    version = re.search(r'^version\s*=\s*"([^"]+)"\s*$', section.group(1), re.M)
    assert ethcluster.__version__ == version.group(1)
