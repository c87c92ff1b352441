"""The package's layering, read from the import statements of its modules.

Each module may import only the siblings listed in LAYERS.  The checkers
(verify) and the state sums (statesum) both sit on tensors, which holds
the one Report type and the backend policy, so neither needs the other.
The same reading pins the package's surface to its environment: one
environment variable (the selftest's PACHNER_MUTATE) and no threads or
processes of its own, numpy imported only inside the float backend's
classes and the dense oracle, never at module level, and keeps the test
modules apart: each imports shared references from tests/reference.py
and from no other test module.  The float entry format stays behind the
ring: tensors imports no coded-entry class and branches on no backend.
Every comparison is decided: no module names a third verdict, and the
command line maps exactly pass and fail to exit codes.
"""

import ast
from pathlib import Path

from pachner.cli import _VERDICT_CODES

SRC = Path(__file__).resolve().parents[1] / "src" / "pachner"
TESTS = Path(__file__).resolve().parent

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


def test_verify_imports_no_private_name_of_tensors_but_the_key_format():
    private = {n for n in sibling_imports()["verify"]["tensors"] if n.startswith("_")}
    assert private == {"_fmt_key"}


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


def test_no_module_names_a_verdict_beside_pass_and_fail():
    for path in sorted(SRC.glob("*.py")):
        assert "indeterminate" not in path.read_text().lower(), path.name
    assert set(_VERDICT_CODES) == {"pass", "fail"}


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


def numpy_imports(tree, scope=()) -> set:
    """The dotted names of the classes and functions around each import of
    numpy in the tree, "" for one at module level."""
    found = set()
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found |= numpy_imports(node, scope + (node.name,))
            continue
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            modules = []
        if "numpy" in {m.split(".")[0] for m in modules}:
            found.add(".".join(scope))
        found |= numpy_imports(node, scope)
    return found


def numpy_import_sites() -> set:
    """(module, dotted scope) of every import of numpy in the package."""
    return {
        (path.stem, where)
        for path in sorted(SRC.glob("*.py"))
        for where in numpy_imports(ast.parse(path.read_text()))
    }


def test_no_module_imports_numpy_at_module_level():
    # so importing the package and every exact run leave numpy unloaded
    sites = numpy_import_sites()
    assert sites and not {module for module, where in sites if not where}


def test_numpy_is_imported_only_inside_the_float_backend_and_the_dense_oracle():
    # the float ring and its coded entries, and the dense oracle
    owners = {(module, where.split(".")[0]) for module, where in numpy_import_sites()}
    assert owners == {
        ("scalars", "ComplexRing"),
        ("scalars", "_FloatEntries"),
        ("verify", "dense_p33_oracle"),
    }


def test_no_test_module_imports_another_but_the_reference():
    local = {path.stem for path in TESTS.glob("*.py")}
    for path in sorted(TESTS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                assert top not in local - {"reference"}, (path.name, module)


def triangulation_private_names() -> set:
    """The underscore names of a Triangulation: its private methods and
    the attributes its methods set or read on self."""
    tree = ast.parse((SRC / "simplicial.py").read_text())
    (cls,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Triangulation"]
    names = set()
    for node in ast.walk(cls):
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "self":
            names.add(node.attr)
    return {n for n in names if n.startswith("_") and not n.endswith("__")}


def test_only_simplicial_reads_a_private_name_of_a_triangulation():
    # move types, site order and orientation coherence are simplicial's
    # rules; every other module asks its public functions
    private = triangulation_private_names()
    assert {"_move_sites", "_sites", "_validate_gluing"} <= private
    for path in sorted(SRC.glob("*.py")):
        if path.stem != "simplicial":
            tree = ast.parse(path.read_text())
            reads = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
            assert not reads & private, (path.stem, reads & private)


def test_the_float_tolerance_is_written_once():
    # every float comparison's default, the dense oracle's tolerances and
    # the float invariance threshold read scalars.FLOAT_REL
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and type(node.value) is float and node.value == 1e-9:
                use = parents[node]
                targets = [t.id for t in use.targets] if isinstance(use, ast.Assign) else []
                found.append((path.stem, targets))
    assert found == [("scalars", ["FLOAT_REL"])]


def test_a_map_is_a_group_tensor_and_no_module_reads_a_wrapped_tensor():
    # a map is a GroupTensor whose UP slots come first, so nothing wraps a
    # tensor to read it as one; the identity and sigma are the one subclass
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        reads = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Attribute) and n.attr == "tensor"]
        assert not reads, (path.stem, reads)
    tree = ast.parse((SRC / "tensors.py").read_text())
    classes = {n.name: [ast.unparse(b) for b in n.bases] for n in tree.body if isinstance(n, ast.ClassDef)}
    assert classes == {
        "Variance": ["enum.Enum"],
        "BasisDomain": [],
        "GroupTensor": [],
        "Report": [],
        "WirePermutation": ["GroupTensor"],
    }


def test_tensors_leaves_the_float_entry_format_to_the_ring():
    # a ring holds its own entries (hold), so tensors runs one path on both
    # backends: it imports no coded-entry class, names ComplexRing only to
    # move a tensor into one, and conj has no backend branch
    tree = ast.parse((SRC / "tensors.py").read_text())
    assert "_FloatEntries" not in sibling_imports()["tensors"]["scalars"]
    defs = {n.name: n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    assert "_held" not in defs
    named = lambda root: [n for n in ast.walk(root) if isinstance(n, ast.Name) and n.id == "ComplexRing"]
    assert named(tree) == named(defs["to_float"]) != []
    conj = list(ast.walk(defs["conj"]))
    assert not [n for n in conj if isinstance(n, (ast.If, ast.IfExp))]
    assert len([n for n in conj if isinstance(n, ast.Return)]) == 1


def test_statesum_reads_the_simplex_width_from_the_complex():
    # one rule in every dimension: no literal simplex width in a range call
    # and no comparison of a .dim with a literal dimension
    tree = ast.parse((SRC / "statesum.py").read_text())
    is_int = lambda n: isinstance(n, ast.Constant) and type(n.value) is int
    lone = [
        n.lineno
        for n in ast.walk(tree)
        if isinstance(n, ast.Call) and ast.unparse(n.func) == "range" and len(n.args) == 1 and is_int(n.args[0])
    ]
    assert not lone
    dims = [
        n.lineno
        for n in ast.walk(tree)
        if isinstance(n, ast.Compare)
        and any(isinstance(x, ast.Attribute) and x.attr == "dim" for x in [n.left, *n.comparators])
        and any(is_int(x) for x in [n.left, *n.comparators])
    ]
    assert not dims
