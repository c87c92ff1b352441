"""The package's layering, read from the import statements of its modules.

Each module may import only the siblings listed in LAYERS.  The checkers
(verify) and the state sums (statesum) both sit on tensors, which holds
the one Report type and the backend policy, so neither needs the other.
The same reading pins the package's surface to its environment: one
environment variable (the selftest's PACHNER_MUTATE) and no threads or
processes of its own.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "pachner"

LAYERS = {
    "scalars": set(),
    "simplicial": set(),
    "groups": {"scalars"},
    "tensors": {"scalars"},
    "solutions": {"groups", "tensors"},
    "verify": {"groups", "solutions", "tensors"},
    "statesum": {"scalars", "simplicial", "solutions", "tensors"},
    "acceptance": {"groups", "scalars", "simplicial", "solutions", "statesum", "verify"},
    "cli": {"acceptance", "groups", "scalars", "simplicial", "solutions", "statesum", "verify"},
    "__init__": {"groups", "scalars", "simplicial", "solutions", "statesum", "tensors", "verify"},
}


def sibling_imports() -> dict:
    """module -> {sibling: names imported from it}, from every relative
    import in the module, nested ones included."""
    table = {}
    for path in sorted(SRC.glob("*.py")):
        imports = table.setdefault(path.stem, {})
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom) or node.level != 1:
                continue
            if node.module:
                imports.setdefault(node.module, set()).update(a.name for a in node.names)
            else:  # from . import sibling
                for alias in node.names:
                    imports.setdefault(alias.name, set())
    return table


def test_every_module_imports_only_its_listed_siblings():
    assert {module: set(names) for module, names in sibling_imports().items()} == LAYERS


def test_statesum_does_not_import_verify():
    assert "verify" not in sibling_imports()["statesum"]


def test_verify_and_statesum_import_no_private_name_of_each_other():
    table = sibling_imports()
    for module in ("verify", "statesum"):
        for source in ("verify", "statesum"):
            private = {n for n in table[module].get(source, ()) if n.startswith("_")}
            assert not private, (module, source, private)


def environment_reads(tree) -> set:
    """The names read through os.environ or os.getenv; a read whose name
    is not a string literal shows as None."""
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    names = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute) or node.attr not in ("environ", "getenv"):
            continue
        use = parents.get(node)
        if node.attr == "environ" and isinstance(use, ast.Attribute):
            use = parents.get(use)  # os.environ.get(...)
        key = None
        if isinstance(use, ast.Call) and use.args:
            key = use.args[0]
        elif isinstance(use, ast.Subscript):
            key = use.slice
        names.add(key.value if isinstance(key, ast.Constant) else None)
    return names


def test_the_only_environment_variable_read_is_the_mutation_hook():
    reads = set()
    for path in sorted(SRC.glob("*.py")):
        reads |= environment_reads(ast.parse(path.read_text()))
    assert reads == {"PACHNER_MUTATE"}


def test_no_module_starts_threads_or_processes():
    banned = {"concurrent", "threading", "multiprocessing"}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            assert not {m.split(".")[0] for m in modules} & banned, (path.name, modules)
