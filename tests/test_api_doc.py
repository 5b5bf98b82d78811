"""``docs/api.md`` names only what the packages export.

Every ``- **`Name`** (kind)`` bullet under a ``## `pkg` `` heading must
resolve as an attribute of that package, so a name deleted from the code
cannot linger in the reference.
"""

import importlib
import re
from pathlib import Path

import pytest

_API = Path(__file__).resolve().parent.parent / "docs" / "api.md"
_HEADING = re.compile(r"^## `([\w.]+)`")
_BULLET = re.compile(r"^- \*\*`(\w+)`\*\* \((\w+)\)")


def _documented() -> list[tuple[str, str]]:
    """``(package, name)`` for every kinded bullet, in document order."""
    out = []
    pkg = None
    for line in _API.read_text().splitlines():
        heading = _HEADING.match(line)
        if heading:
            pkg = heading.group(1)
        elif line.startswith("## "):
            pkg = None
        bullet = _BULLET.match(line)
        if bullet and pkg is not None:
            out.append((pkg, bullet.group(1)))
    return out


def test_bullets_found():
    # Guards the parser: a format change that matched nothing would
    # make the resolution test pass vacuously.
    assert len(_documented()) > 200


@pytest.mark.parametrize("pkg", sorted({p for p, _n in _documented()}))
def test_documented_names_resolve(pkg):
    module = importlib.import_module(pkg)
    missing = [n for p, n in _documented() if p == pkg and not hasattr(module, n)]
    assert not missing, f"docs/api.md documents names {pkg} lacks: {missing}"
