"""Every module under ``src/repro`` has a caller outside the tests.

A module that only its tests, the examples or its package ``__init__``
import runs in no sweep, report golden or bench, so it cannot move a number
the repo publishes.  Each module must be imported by another ``src/`` module
that is not a package ``__init__``, or by ``benchmarks/`` or ``perfbench/``.
A helper that only a test needs lives in that test, as a reference model.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CALLER_DIRS = (SRC, ROOT / "benchmarks", ROOT / "perfbench")


def module_name(path):
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def imported_modules(path):
    """Every dotted name ``path`` imports, with relative imports resolved.

    ``from a import b`` yields both ``a`` and ``a.b``, since ``b`` may be a
    submodule.  Relative imports resolve only inside ``src/``.
    """
    package = None
    if SRC in path.parents:
        package = module_name(path).split(".")
        if path.name != "__init__.py":
            package = package[:-1]
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                if package is None:
                    continue
                anchor = package[:len(package) - node.level + 1]
                base = ".".join(anchor + [node.module] if node.module else anchor)
            else:
                base = node.module
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def test_every_src_module_has_a_caller():
    modules = {
        module_name(path): path
        for path in sorted((SRC / "repro").rglob("*.py"))
        if path.name not in ("__init__.py", "__main__.py")
    }
    called = set()
    for root in CALLER_DIRS:
        for path in root.rglob("*.py"):
            if path.name == "__init__.py" and root == SRC:
                continue
            caller = module_name(path) if root == SRC else None
            called.update(name for name in imported_modules(path)
                          if name in modules and name != caller)
    uncalled = sorted(set(modules) - called)
    assert not uncalled, (
        "modules no src/, benchmarks/ or perfbench/ code imports: "
        + ", ".join(uncalled))
