"""The size limits live in one module; the README table mirrors it."""

import re
from pathlib import Path

import pytest

from subtree_census import limits
from subtree_census.errors import TooLargeError

README = Path(__file__).resolve().parent.parent / "README.md"
ROW = re.compile(r"^\| `([A-Z_]+)` \| ([\d,]+) \| (.+) \|$")


def _readme_limits() -> dict[str, int]:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Size limits\n", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        match = ROW.match(line)
        if match:
            name, value, what = match.groups()
            assert name not in rows, f"{name} listed twice"
            assert what.strip(), f"{name} has no description"
            rows[name] = int(value.replace(",", ""))
    return rows


def test_readme_size_limits_table_matches_limits_module():
    constants = {name: value for name, value in vars(limits).items()
                 if name.isupper() and isinstance(value, int)}
    assert len(constants) == 11
    assert _readme_limits() == constants


def test_check_exponent_boundary():
    limits.check_exponent(limits.EXPONENT_CAP, "x")
    with pytest.raises(TooLargeError, match=r"^2\*\*y exceeds the 1048576-bit exponent cap$"):
        limits.check_exponent(limits.EXPONENT_CAP + 1, "2**y")


def test_modules_define_no_caps_of_their_own():
    src = Path(limits.__file__).parent
    pattern = re.compile(r"^(EXPONENT_CAP|MAX_MATERIALIZED|[A-Z_]+_MAX) *=", re.M)
    owners = sorted(p.name for p in src.glob("*.py") if pattern.search(p.read_text(encoding="utf-8")))
    assert owners == ["limits.py"]
