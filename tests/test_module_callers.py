"""Every module, top-level name, class method and config path under
``src/repro`` has a reader outside the tests.

A module or function that only its tests, the examples or its package
``__init__`` reach runs in no sweep, report golden or bench, so it cannot
move a number the repo publishes.  Each module must be imported, and each
module-level function or class referenced, by ``src/`` code that is not a
package ``__init__``, or by ``benchmarks/`` or ``perfbench/``.  A helper
that only a test needs lives in that test, as a reference model.

Each public method and property of a class must be named by that code too,
or be listed in ``PROBES`` with the test that reads it as a probe: a counter
or a query that checks code which does run.

Each config path must be read by the simulator (``gpu/``, ``core/``,
``ssd/``, ``sim/``, ``platforms/`` or ``workloads/``), directly or through a
``config.py`` property the simulator reads; a knob nothing reads is
accepted, cached and recorded, yet changes no simulated number.  Both name
checks match names, not bindings, so a reader of a same-named attribute
elsewhere hides an unread field from them.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CALLER_DIRS = (SRC, ROOT / "benchmarks", ROOT / "perfbench")
SIMULATOR_PACKAGES = ("gpu", "core", "ssd", "sim", "platforms", "workloads")

#: Public methods and properties no ``src/``, ``benchmarks/`` or
#: ``perfbench/`` code names, each kept because the test named here reads it
#: to check code that runs.
PROBES = {
    "ConfigSchema.undocumented": "tests/configspace/test_schema_drift.py",
    "DataBlockMappingTable.fits_in_mmu": "tests/core/test_dbmt.py",
    "EnduranceModel.endurance_gain_from_buffering": "tests/ssd/test_endurance.py",
    "EnduranceModel.estimate_lifetime_days": "tests/ssd/test_endurance.py",
    "EnduranceReport.remaining_pe_cycles": "tests/ssd/test_endurance.py",
    "EnduranceReport.wear_fraction": "tests/ssd/test_endurance.py",
    "Interconnect.bytes_moved": "tests/platforms/test_output_invariants.py",
    "Interconnect.packets": "tests/platforms/test_output_invariants.py",
    "MMU.translations": "tests/platforms/test_output_invariants.py",
    "MSHR.outstanding": "tests/gpu/test_mshr.py",
    "Resource.utilization": "tests/sim/test_engine.py",
    "ResultCache.path_for": "tests/runner/test_manifest.py",
    "SweepResult.stats_dicts": "tests/runner/test_runner.py",
    "ZeroOverheadFTL.setup_mapping": "tests/core/test_integrity.py",
}


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def caller_files():
    """``(root, path)`` of every file that counts as a caller."""
    for root in CALLER_DIRS:
        for path in sorted(root.rglob("*.py")):
            if path.name == "__init__.py" and root == SRC:
                continue
            yield root, path


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
    for node in ast.walk(parse(path)):
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
    for root, path in caller_files():
        caller = module_name(path) if root == SRC else None
        called.update(name for name in imported_modules(path)
                      if name in modules and name != caller)
    uncalled = sorted(set(modules) - called)
    assert not uncalled, (
        "modules no src/, benchmarks/ or perfbench/ code imports: "
        + ", ".join(uncalled))


def referenced_names(tree):
    """Every name ``tree`` loads, reads as an attribute or imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_top_level_name_has_a_caller():
    defined = [
        (path.relative_to(SRC), node.name)
        for path in sorted((SRC / "repro").rglob("*.py"))
        for node in parse(path).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]
    referenced = set()
    for _, path in caller_files():
        referenced |= referenced_names(parse(path))
    uncalled = [f"{path}::{name}" for path, name in defined
                if name not in referenced]
    assert not uncalled, (
        "top-level names no src/, benchmarks/ or perfbench/ code references: "
        + ", ".join(uncalled))


def named_strings(tree):
    """Every string literal in ``tree``: a name ``getattr`` or a tracer's
    wrap may look up."""
    return {node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}


def test_every_public_method_has_a_caller_or_is_a_probe():
    defined = {
        f"{cls.name}.{node.name}": path.relative_to(SRC)
        for path in sorted((SRC / "repro").rglob("*.py"))
        for cls in ast.walk(parse(path)) if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
    }
    named = set()
    for _, path in caller_files():
        tree = parse(path)
        named |= referenced_names(tree) | named_strings(tree)
    uncalled = {key for key in defined if key.split(".")[1] not in named}
    unlisted = sorted(f"{defined[key]}::{key}" for key in uncalled - set(PROBES))
    assert not unlisted, (
        "public methods no src/, benchmarks/ or perfbench/ code names and "
        "PROBES does not list: " + ", ".join(unlisted))
    stale = sorted(set(PROBES) - uncalled)
    assert not stale, (
        "PROBES entries that are gone or now have a caller: " + ", ".join(stale))
    unprobed = sorted(key for key, test in PROBES.items()
                      if key.split(".")[1] not in (ROOT / test).read_text())
    assert not unprobed, (
        "PROBES entries their test does not name: " + ", ".join(unprobed))


def test_every_config_path_is_read_by_the_simulator():
    from repro.configspace import SCHEMA

    read = set()
    for package in SIMULATOR_PACKAGES:
        for path in (SRC / "repro" / package).rglob("*.py"):
            read.update(node.attr for node in ast.walk(parse(path))
                        if isinstance(node, ast.Attribute)
                        and isinstance(node.ctx, ast.Load))
    # A property of a config class reads the fields its body names.
    properties = {}
    for node in ast.walk(parse(SRC / "repro" / "config.py")):
        if isinstance(node, ast.FunctionDef) and any(
                isinstance(d, ast.Name) and d.id == "property"
                for d in node.decorator_list):
            properties.setdefault(node.name, set()).update(
                inner.attr for inner in ast.walk(node)
                if isinstance(inner, ast.Attribute))
    grown = True
    while grown:
        grown = False
        for name, fields in properties.items():
            if name in read and not fields <= read:
                read |= fields
                grown = True
    unread = [spec.path for spec in SCHEMA.fields() if spec.name not in read]
    assert not unread, (
        "config paths no gpu/, core/, ssd/, sim/, platforms/ or workloads/ "
        "code reads: " + ", ".join(unread))
