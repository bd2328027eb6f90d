"""Every module-level name in the package is public or used by the package.

A function, class or constant that is neither listed in ``nonautodyn.__all__``
nor referenced anywhere else in ``src/`` is code that only tests reach. This
guard keeps such names from accumulating.
"""

import ast
from pathlib import Path

import nonautodyn

SRC = Path(nonautodyn.__file__).resolve().parent

# the tests find the golden reports through this function
ALLOWED = {("report", "golden_path")}


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
