"""Every public function and method in the package is named somewhere besides
its own def: in the package, the acceptance criteria, the benchmark or the
project metadata.  A name found nowhere else is surface no subcommand,
benchmark job or criterion reaches, and is deleted rather than kept."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "paneitz_lab"
READERS = [
    *sorted(PACKAGE.glob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
    *sorted((ROOT / "perfbench").glob("*.py")),
    ROOT / "pyproject.toml",
]


def _public_defs():
    """(module, qualified name, name) of every public module-level function
    and every public method of a module-level class."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, functions):
                members = [(node.name, node)]
            elif isinstance(node, ast.ClassDef):
                members = [(f"{node.name}.{m.name}", m) for m in node.body if isinstance(m, functions)]
            else:
                continue
            for qualname, member in members:
                if not member.name.startswith("_"):
                    yield path.stem, qualname, member.name


def test_every_public_function_is_named_beyond_its_def():
    text = "\n".join(path.read_text() for path in READERS)
    words = Counter(re.findall(r"\w+", text))
    defs = Counter(re.findall(r"\bdef\s+(\w+)", text))
    unreached = [
        f"{module}.{qualname}"
        for module, qualname, name in _public_defs()
        if words[name] <= defs[name]
    ]
    assert unreached == []
