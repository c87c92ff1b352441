"""The package's layering, read from the import statements of its modules.

Each module may import only the siblings listed in LAYERS.  The checkers
(verify) and the state sums (statesum) both sit on tensors, which holds
the one Report type and the backend policy, so neither needs the other.
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
