"""No test-only code in `src/`: every function, class and method defined
under `src/gpbound` that a test loads is also loaded by a caller, unless it
is kept on purpose below.

Callers are `src/`, `bench/*.py` and `demos/`.  A use of a function or
class is an `ast.Name` or `ast.Attribute` load of the bare name; a use of a
method is an `ast.Attribute` load only, so a local variable named like a
method does not count as calling it.  Import lines do not count, and
neither does an attribute of a name that an `import x [as y]` of another
package bound, such as `np.exp` or `math.log`: that is that package's
function.  Matching by bare name can only miss test-only code (a caller's
`.build` covers every `build`), never invent it.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]

# Reference implementations and accessors kept in the library on purpose.
KEPT = {
    "intermediate_identities_check": "the only check of the sieve proof's displays (a) and (b)",
    "principal_moment_exact": "closed form the moment tests compare the window sums against",
    "Factorization.from_json": "reads the p-1 factorization files planned for certify --pm1",
    "CharacterIndex.conjugate": "accessor of the character's conjugate, pinned by tests",
    "CharacterIndex.is_principal": "accessor of the principal character, pinned by tests",
    "CertifiedReal.contains": "accessor of enclosure membership, pinned by tests",
}


def _definitions(tree: ast.Module) -> dict[str, str]:
    """{qualified name: bare name} for module-level functions and classes
    and their methods, dunders left out; a method's bare name is `.name`."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out[node.name] = node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    out[f"{node.name}.{item.name}"] = f".{item.name}"
    return out


def _loads(paths) -> set[str]:
    """Bare names loaded: `name` for an `ast.Name` or `ast.Attribute` load,
    and `.name` for an `ast.Attribute` load, unless the attribute is read
    off a name bound by `import x [as y]` of a package other than gpbound."""
    names = set()
    for path in paths:
        tree = ast.parse(path.read_text(), str(path))
        modules = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            for alias in node.names
            if alias.name.split(".")[0] != "gpbound"
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                if isinstance(node.value, ast.Name) and node.value.id in modules:
                    continue
                names.update((node.attr, f".{node.attr}"))
    return names


def test_src_has_no_code_only_tests_use():
    src = sorted((ROOT / "src" / "gpbound").rglob("*.py"))
    defined = {}
    for path in src:
        defined.update(_definitions(ast.parse(path.read_text(), str(path))))
    callers = [*src, *sorted((ROOT / "bench").glob("*.py")), *sorted((ROOT / "demos").glob("*.py"))]
    called = _loads(callers)
    tested = _loads(sorted((ROOT / "tests").rglob("*.py")))
    test_only = {
        qual for qual, bare in defined.items() if bare in tested and bare not in called
    }
    assert test_only - set(KEPT) == set()
    # an entry that gained a caller, or lost its tests, leaves the list
    assert set(KEPT) <= test_only
