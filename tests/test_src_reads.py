"""src/samdyn holds no name that only the tests read.

Every public module-level function, class and constant of a samdyn module
must be read somewhere outside tests/: elsewhere in its own module, by
another samdyn module, by scripts/ or by perfbench/.  A wrapper that only
tests call belongs in tests/helpers.py.  The scan reads the source with
ast and imports nothing.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PKG = ROOT / "src" / "samdyn"

# kept for the phase-boundary fit (ROADMAP item 9), which will read them
ALLOWED = {"checks.classify_regime", "experiments.load_results_csv"}


def _public_defs(tree):
    """The public names a module's top level defines."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from (name for name in names if not name.startswith("_"))


def _reads_of(tree, home):
    """Names of module home that another file reads: imported from it, or
    looked up as home.name."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == home:
            out.update(alias.name for alias in node.names)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == home):
            out.add(node.attr)
    return out


def test_every_public_name_is_read_outside_the_tests():
    trees = {path: ast.parse(path.read_text())
             for folder in ("src/samdyn", "scripts", "perfbench")
             for path in (ROOT / folder).rglob("*.py")}
    unread = set()
    for path in sorted(PKG.glob("*.py")):
        home, tree = path.stem, trees[path]
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for other, other_tree in trees.items():
            if other != path:
                read |= _reads_of(other_tree, home)
        unread |= {f"{home}.{name}" for name in _public_defs(tree) if name not in read}
    # a name that gains a reader outside the tests leaves ALLOWED too
    assert unread == ALLOWED, (f"read only by tests: {sorted(unread - ALLOWED)}; "
                               f"no longer unread: {sorted(ALLOWED - unread)}")
