"""The package imports and runs with only its declared dependencies.

``pyproject.toml`` declares numpy as the one runtime dependency.  A
fresh interpreter installs a ``sys.meta_path`` blocker that refuses any
top-level import outside the standard library, numpy and ``repro``
itself, then imports the package and runs ``python -m repro cnv``.  An
undeclared import (even one installed in the test environment) fails
here instead of in a clean install.
"""

import subprocess
import sys

_BLOCKER = """
import sys

_ALLOWED = set(sys.stdlib_module_names) | {"numpy", "repro"}


class _DeclaredOnly:
    def find_spec(self, name, path=None, target=None):
        top = name.partition(".")[0]
        if top not in _ALLOWED:
            raise ModuleNotFoundError(
                f"undeclared dependency {name!r}", name=name
            )
        return None


sys.meta_path.insert(0, _DeclaredOnly())
"""


def _run(body: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", _BLOCKER + body],
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_blocker_refuses_undeclared_imports():
    out = _run("import hypothesis\n")
    assert out.returncode != 0
    assert "undeclared dependency 'hypothesis'" in out.stderr


def test_import_repro_with_declared_dependencies_only():
    out = _run("import repro\nimport repro.flow\nprint('ok')\n")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"


def test_cli_cnv_with_declared_dependencies_only():
    out = _run(
        "import runpy\n"
        "sys.argv = ['repro', 'cnv']\n"
        "runpy.run_module('repro', run_name='__main__', alter_sys=True)\n"
    )
    assert out.returncode == 0, out.stderr
    assert "graph: components=1 dag=True" in out.stdout
