"""The public surface: every name `annulus_harmonics` exports has a use."""

import re
from pathlib import Path

import annulus_harmonics

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_is_used_by_the_package_the_benchmark_or_the_readme():
    """A name in __all__ is referenced in src/ outside its own definition
    and __init__.py, or in bench/, or in README.md."""
    package = [p.read_text() for p in (ROOT / "src" / "annulus_harmonics").glob("*.py")
               if p.name != "__init__.py"]
    elsewhere = "\n".join(p.read_text() for p in [*(ROOT / "bench").rglob("*.py"),
                                                   ROOT / "README.md"])
    unused = []
    for name in annulus_harmonics.__all__:
        word = re.compile(rf"\b{re.escape(name)}\b")
        definition = re.compile(rf"^\s*(?:def|class)\s+{re.escape(name)}\b")
        in_package = any(word.search(line) and not definition.match(line)
                         for text in package for line in text.splitlines())
        if not (in_package or word.search(elsewhere)):
            unused.append(name)
    assert unused == []
