"""README.md's Layout table: one row per module of the package, naming
only public names, so the table says what each module owns and leaves how
it works to the docstrings."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "shadowmot"


def _layout_rows() -> dict[str, str]:
    """Module name -> the rest of its row, for each row of the Layout table."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    _, found, rest = text.partition("\n## Layout\n")
    assert found, "README.md has no Layout section"
    section = rest.split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \|(.*)$", section, re.M)
    names = [name for name, _ in rows]
    assert len(set(names)) == len(names), f"a module has two rows: {names}"
    return dict(rows)


def test_one_row_per_module():
    modules = sorted(path.stem for path in PACKAGE.glob("*.py"))
    assert sorted(_layout_rows()) == modules


def test_rows_name_no_private_identifier():
    for module, row in _layout_rows().items():
        named = [word for code in re.findall(r"`([^`]*)`", row)
                 for word in re.findall(r"[A-Za-z_]\w*", code)]
        private = [word for word in named if re.match(r"_[^_]", word)]
        assert not private, f"the {module} row names {private}"
