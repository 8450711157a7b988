"""No module of the package, the tests or the demos imports a name it
does not use, and no private name of the package is left unreferenced.
Each field class has one derivative source, and the transport hot path
makes no array call.

A static scan with the standard-library ast module: an imported name
counts as used when it appears as a name anywhere in the module or is
listed in the module's __all__.  __future__ imports are exempt.  A
private function, class or constant at module level of src/spinray, or a
private method of one of its classes, counts as referenced when its name
is read (as a name, an attribute or an imported name) anywhere in the
package, the tests or the demos.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src/spinray", "tests", "demos")


def exported_names(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return names


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= exported_names(tree)
    rel = path.relative_to(ROOT)
    return [f"{rel}:{line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


def test_no_unused_imports():
    files = sorted(p for folder in SCANNED for p in (ROOT / folder).rglob("*.py"))
    assert files
    unused = [entry for path in files for entry in unused_imports(path)]
    assert unused == []


def private_definitions(tree: ast.Module) -> list[tuple[str, int]]:
    """Single-underscore names defined at module level, and the private
    methods of module-level classes."""
    found = []
    for node in tree.body:
        targets = []
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        found += [(name, node.lineno) for name in targets]
        if isinstance(node, ast.ClassDef):
            found += [(item.name, item.lineno) for item in node.body
                      if isinstance(item, ast.FunctionDef)]
    return [(name, line) for name, line in found
            if name.startswith("_") and not name.startswith("__")]


def referenced_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names}
    return names


def test_no_unreferenced_private_names():
    files = sorted(p for folder in SCANNED for p in (ROOT / folder).rglob("*.py"))
    trees = {path: ast.parse(path.read_text(), filename=str(path)) for path in files}
    referenced = set().union(*(referenced_names(tree) for tree in trees.values()))
    package = ROOT / "src" / "spinray"
    defined = [(path, name, line) for path, tree in trees.items() if path.is_relative_to(package)
               for name, line in private_definitions(tree)]
    assert defined
    orphans = [f"{path.relative_to(ROOT)}:{line}: {name}" for path, name, line in defined
               if name not in referenced]
    assert orphans == []


# The transport hot path, which runs on Python floats: a numpy call there
# costs more than the arithmetic it does.  Per module, the functions (and
# methods, as Class.method) whose bodies, nested functions included, must
# not touch numpy or the array helpers of spinray.vectors.
FLOAT_PATH = {
    "src/spinray/vectors.py": ("_cross", "_fma_dot"),
    "src/spinray/fields.py": (
        "IndexField._checked", "ConstantIndex.component_jet",
        "LinearGradientIndex.component_jet", "GaussianBumpIndex.component_jet",
    ),
    "src/spinray/propagation.py": (
        "_oriented_unit", "_tangent", "_hess_times", "_spinless_kernel",
        "_full_kernel", "_linearized_kernel", "_general_kernel", "_locate_crossing",
        "integrate.stage", "integrate.rk4", "integrate.line",
    ),
}
# The one numpy call allowed there: numpy's exp and math.exp differ in the
# last bit for about one argument in twenty, and the bump's float jet keeps
# numpy's so that it equals the array jet bit for bit.
FLOAT_PATH_EXEMPT = {"GaussianBumpIndex.component_jet": {"np.exp"}}


def array_names(tree: ast.Module) -> set[str]:
    """Names a module binds to numpy or to the array helpers of spinray.vectors."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            names |= {alias.asname or alias.name for alias in node.names
                      if alias.name.split(".")[0] == "numpy"}
        elif isinstance(node, ast.ImportFrom) and node.module in ("numpy", "vectors"):
            names |= {alias.asname or alias.name for alias in node.names
                      if node.module == "numpy" or not alias.name.startswith("_")}
    return names


def qualified_functions(tree: ast.Module) -> dict[str, ast.FunctionDef]:
    """Module functions, class methods and the functions nested one level
    in either, by dotted name."""
    found = {}

    def visit(body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                name = prefix + node.name
                if isinstance(node, ast.FunctionDef):
                    found[name] = node
                if prefix.count(".") < 1:
                    visit(node.body, name + ".")

    visit(tree.body, "")
    return found


def array_uses(path: Path, functions) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    banned = array_names(tree) | {"np", "numpy"}
    defined = qualified_functions(tree)
    uses = []
    for qualname in functions:
        assert qualname in defined, f"{path.name}: no function {qualname}"
        nodes = list(ast.walk(defined[qualname]))
        exempt = {id(node.value) for node in nodes
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and f"{node.value.id}.{node.attr}" in FLOAT_PATH_EXEMPT.get(qualname, ())}
        uses += [f"{path.relative_to(ROOT)}:{node.lineno}: {qualname} uses {node.id}"
                 for node in nodes
                 if isinstance(node, ast.Name) and node.id in banned and id(node) not in exempt]
    return uses


def test_float_transport_path_makes_no_array_calls():
    uses = [use for rel, functions in FLOAT_PATH.items()
            for use in array_uses(ROOT / rel, functions)]
    assert uses == []


def test_fields_derive_jet_from_component_jet_alone():
    # IndexField.jet builds the arrays from component_jet; a field class
    # that defined its own jet would be a second source of the same ten
    # numbers, and one without component_jet would fall back to the
    # value/gradient/hessian adapter meant for custom fields
    tree = ast.parse((ROOT / "src/spinray/fields.py").read_text())
    members = {}
    field_classes = {"IndexField"}
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            members[node.name] = {item.name for item in node.body
                                  if isinstance(item, ast.FunctionDef)}
            members[node.name] |= {t.id for item in node.body if isinstance(item, ast.Assign)
                                   for t in item.targets if isinstance(t, ast.Name)}
            if any(isinstance(base, ast.Name) and base.id in field_classes
                   for base in node.bases):
                field_classes.add(node.name)
    built_in = field_classes - {"IndexField"}
    assert built_in >= {"ConstantIndex", "LinearGradientIndex", "GaussianBumpIndex", "GridIndex"}
    assert [name for name in members if "jet" in members[name]] == ["IndexField"]
    assert sorted(name for name in built_in if "component_jet" not in members[name]) == []
