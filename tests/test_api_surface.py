"""Every module-level name in the package is public or used by the package,
every method or property of a class in the package is used by it, and every
name a module or test imports is read there.

A function, class or constant that is neither listed in ``nonautodyn.__all__``
nor referenced anywhere else in ``src/`` is code that only tests reach, and
so is a method or property whose name no attribute in ``src/`` reads outside
its own body. This guard keeps such names from accumulating.
"""

import ast
from pathlib import Path

import nonautodyn

SRC = Path(nonautodyn.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent

# the tests find the golden reports through this function
ALLOWED = {("report", "golden_path")}

#: the public names that nothing in src/ reads, each with why it stays
KEPT_PUBLIC = {
    "apply": "a map on one point, the scalar reference for apply_batch",
    "distance": "the metric on two points, without coordinate arrays",
    "omega": "the paper's orbit operator omega_n on one point",
    "reproduce": "a builtin scenario's report in one call, as `nonautodyn reproduce` makes it",
}


def _defined(stmt: ast.stmt) -> list[str]:
    """Names a module-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def _referenced(node: ast.AST) -> set[str]:
    """Names read inside a node, by name or as an attribute."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def test_no_module_level_name_is_used_only_by_tests():
    defined: list[tuple[str, str]] = []
    uses: dict[str, int] = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            own = _defined(stmt)
            defined.extend((path.stem, name) for name in own)
            # a definition's references to itself do not count as uses
            for name in _referenced(stmt) - set(own):
                uses[name] = uses.get(name, 0) + 1
    public = set(nonautodyn.__all__)
    unused = [
        f"{module}.{name}"
        for module, name in defined
        if not (name.startswith("__") and name.endswith("__"))
        and name not in public
        and name not in uses
        and (module, name) not in ALLOWED
    ]
    assert not unused, f"defined in src/ but used by nothing there: {unused}"


def test_every_public_name_is_read_in_src_or_kept_for_a_reason():
    # a public name that only tests read is a candidate for deletion; the
    # unread names must be exactly those kept, so a stale entry fails too
    uses = set()
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            uses |= _referenced(stmt) - set(_defined(stmt))
    assert set(nonautodyn.__all__) - uses == set(KEPT_PUBLIC)


def _attributes(node: ast.AST, name: str | None = None) -> list[str]:
    """Attribute names read inside a node, or only those equal to name."""
    return [
        sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, ast.Attribute) and name in (None, sub.attr)
    ]


def test_no_method_or_property_is_used_only_by_tests():
    members: list[tuple[str, str, ast.FunctionDef]] = []
    uses: dict[str, int] = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for attr in _attributes(tree):
            uses[attr] = uses.get(attr, 0) + 1
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                members.extend(
                    (path.stem, cls.name, fn)
                    for fn in cls.body
                    if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (fn.name.startswith("__") and fn.name.endswith("__"))
                )
    unused = [
        f"{module}.{cls}.{fn.name}"
        for module, cls, fn in members
        # a member's references to itself do not count as uses
        if uses.get(fn.name, 0) == len(_attributes(fn, fn.name))
    ]
    assert not unused, f"methods in src/ used by nothing there: {unused}"


def test_points_are_built_only_in_space():
    # samples are coordinate arrays; space.coord_point builds the points that
    # the one-point API returns and a witness writes
    ctors = {"BinaryWord", "CircleAngle", "IntervalPoint"}
    calls = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "space.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name in ctors:
                    calls.append(f"{path.name}:{node.lineno}")
    assert not calls, f"points built outside space.py: {calls}"


def _imported(tree: ast.AST) -> list[str]:
    """Names the import statements in a tree bind, past __future__ imports."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.extend(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out.extend(a.asname or a.name for a in node.names)
    return out


def test_every_imported_name_is_read():
    unused = []
    for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")):
        if path.name == "__init__.py":
            continue  # the package's imports are its public re-exports
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {
            sub.id
            for sub in ast.walk(tree)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
        }
        unused.extend(f"{path.name}: {name}" for name in _imported(tree) if name not in read)
    assert not unused, f"imported but never read: {unused}"
