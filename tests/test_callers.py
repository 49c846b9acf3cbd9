"""Every public function, class and method of the program has a caller in
the program or the benchmark, so no code is kept alive by its tests alone.
`oracles.py` is exempt: it holds the references that tests compare against.
A name counts as called when it appears as a word in `src/` or
`perfbench/*.py` more often than it is defined there."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "anosovlab"
DEFS = (ast.FunctionDef, ast.ClassDef)


def _public_names(tree):
    for node in tree.body:
        if isinstance(node, DEFS):
            yield node.name
            if isinstance(node, ast.ClassDef):
                yield from (item.name for item in node.body
                            if isinstance(item, DEFS))


def test_every_public_name_has_a_program_caller():
    words, defined, public = Counter(), Counter(), set()
    for path in sorted(PACKAGE.rglob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        text = path.read_text()
        tree = ast.parse(text)
        words.update(re.findall(r"\w+", text))
        defined.update(node.name for node in ast.walk(tree) if isinstance(node, DEFS))
        if path.is_relative_to(PACKAGE) and path.name != "oracles.py":
            public.update(name for name in _public_names(tree)
                          if not name.startswith("_"))
    uncalled = sorted(name for name in public if words[name] <= defined[name])
    assert not uncalled, "no program caller: " + ", ".join(uncalled)
