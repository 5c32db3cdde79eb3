"""Every module-level function and class of `src/levyst` that `levyst.__all__`
does not export has a use outside its own definition: in `src/levyst`
(import lines do not count), in `tools/` or in `perfbench/`.  A helper that
only tests call belongs in `tests/`, and a name kept only for the benchmark
goes once the benchmark stops naming it.  The scan only parses the files."""

import ast
from collections import Counter
from pathlib import Path

import levyst

ROOT = Path(__file__).resolve().parent.parent


def _trees(directory: Path) -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(directory.glob("*.py"))}


def _names(node: ast.AST, strings: bool = False):
    """The identifiers `node` refers to: names, attributes and, with
    `strings`, string constants (the benchmark patches functions by name)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield sub.value


def test_every_unexported_name_has_a_use_outside_the_tests():
    src = _trees(ROOT / "src" / "levyst")
    in_src = Counter(name for tree in src.values() for name in _names(tree))
    outside = {name for directory in ("tools", "perfbench") for tree in _trees(ROOT / directory).values()
               for name in _names(tree, strings=True)}
    unused = [f"{module}: {node.name}" for module, tree in src.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in levyst.__all__
              and in_src[node.name] == sum(name == node.name for name in _names(node))
              and node.name not in outside]
    assert not unused
