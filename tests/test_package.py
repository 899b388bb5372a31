import os
import re
import subprocess
import sys
from pathlib import Path

import ethcluster

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_version_matches_pyproject():
    # a regex, not tomllib: tomllib is 3.11+ and the package supports 3.10
    text = PYPROJECT.read_text("utf-8")
    section = re.search(r"^\[project\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    version = re.search(r'^version\s*=\s*"([^"]+)"\s*$', section.group(1), re.M)
    assert ethcluster.__version__ == version.group(1)


HTTP_MODULES = ("urllib.request", "urllib.error", "http.client", "ssl", "socket", "email")


def test_cli_imports_without_http_or_requests():
    # only ingest's fetch talks HTTP, so importing the CLI must not load the
    # HTTP stack; the diff against the interpreter's own start-up set keeps
    # modules that site hooks load out. A None entry in sys.modules makes any
    # import of requests fail: the explorer client uses the standard library.
    package_root = str(Path(ethcluster.__file__).resolve().parents[1])
    path = os.pathsep.join([package_root, os.environ.get("PYTHONPATH", "")])
    code = ('import sys; sys.modules["requests"] = None; before = set(sys.modules); '
            'import ethcluster.cli; print(" ".join(sorted(set(sys.modules) - before)))')
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": path}, timeout=60)
    assert result.returncode == 0, result.stderr
    added = result.stdout.split()
    assert "ethcluster.cli" in added
    assert [m for m in added if m in HTTP_MODULES or m.startswith("email.")] == []
