import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def documented_entry_points() -> list[tuple[str, str]]:
    """(module, name) for every name README's "Library entry points" lists."""
    text = README.read_text()
    section = text.split("## Library entry points", 1)[1].split("\n## ", 1)[0]
    out = []
    for mod, names in re.findall(r"^from (annuli[\w.]*) import (.+)$", section, re.M):
        out.extend((mod, n.strip()) for n in names.split(","))
    for mod, names in re.findall(r"`(annuli\.\w+)`[^`(]*\(((?:`\w+`[,\s]*)+)\)", section):
        out.extend((mod, n) for n in re.findall(r"`(\w+)`", names))
    return out


def test_readme_entry_points_import():
    found = documented_entry_points()
    assert ("annuli.certify", "ph_ledger") in found
    assert ("annuli.local", "local_puiseux") in found
    for mod, name in found:
        assert hasattr(importlib.import_module(mod), name), f"{mod}.{name}"
