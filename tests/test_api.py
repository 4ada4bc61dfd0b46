"""Every exported name resolves; the library holds no assert statement, no
module-level mutable container, no read of the environment, no unused
private name and no unused import."""

import ast
import importlib
import pathlib

import pytest

import pathdepth

SUBMODULES = ("monomials", "families", "depth", "sdepth", "claims")


def test_package_exports_resolve():
    missing = [name for name in pathdepth.__all__ if not hasattr(pathdepth, name)]
    assert missing == []


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_exports_resolve(name):
    module = importlib.import_module("pathdepth." + name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def _library_trees():
    root = pathlib.Path(pathdepth.__file__).parent
    return [(path.name, ast.parse(path.read_text())) for path in sorted(root.rglob("*.py"))]


def test_no_assert_statement_in_library():
    # assert statements vanish under python -O; invariants must raise instead
    found = [
        "%s:%d" % (name, node.lineno)
        for name, tree in _library_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []


ENVIRONMENT = ("environ", "environb", "getenv", "getenvb")


def test_library_reads_no_environment():
    # a setting read from the environment is an option no caller can see;
    # every knob is an argument or a command-line flag
    found = [
        "%s:%d %s" % (name, node.lineno, ast.unparse(node))
        for name, tree in _library_trees()
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT)
        or (isinstance(node, ast.alias) and node.name in ENVIRONMENT)
    ]
    assert found == []


def _is_mutable_container(value):
    if isinstance(value, (ast.Dict, ast.Set, ast.List, ast.DictComp, ast.SetComp, ast.ListComp)):
        return True
    return (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Name)
        and value.func.id in ("dict", "set", "list")
    )


def test_no_module_level_mutable_container_in_library():
    # module state that a call can fill makes answers depend on call order;
    # memos key on their arguments through functools.cache instead
    allowed = {"__all__", "CLAIM_IDS"}
    found = []
    for name, tree in _library_trees():
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = {ast.unparse(t) for t in node.targets}
            elif isinstance(node, ast.AnnAssign):
                targets = {ast.unparse(node.target)}
            else:
                continue
            if _is_mutable_container(node.value) and not targets <= allowed:
                found.append("%s:%d %s" % (name, node.lineno, ", ".join(sorted(targets))))
    assert found == []


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def test_every_private_module_name_is_used_in_the_library():
    # a private helper that only the tests call is code the library keeps
    # for nothing: every module-level private def, class or assignment must
    # be referenced somewhere in the library outside its own definition
    trees = _library_trees()
    defined = []  # (module, name, the top-level statement defining it)
    for name, tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for target in node.targets for t in ast.walk(target) if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            defined.extend((name, private, node) for private in names if _private(private))
    used = {}  # referenced name -> the (module, top-level statement) pairs it appears in
    for name, tree in trees:
        for statement in tree.body:
            for node in ast.walk(statement):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    used.setdefault(node.id, set()).add((name, id(statement)))
                elif isinstance(node, ast.Attribute):
                    used.setdefault(node.attr, set()).add((name, id(statement)))
    unused = [
        "%s:%d %s" % (module, node.lineno, private)
        for module, private, node in defined
        if not used.get(private, set()) - {(module, id(node))}
    ]
    assert unused == []


def test_every_imported_name_is_used_in_its_module():
    # an import that its module never loads is a dependency kept for
    # nothing, and the private-name guard above cannot see one; `from
    # __future__` and the re-exports that `__all__` lists are exempt
    found = []
    for name, tree in _library_trees():
        loaded = {
            node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        exported = set()
        for node in tree.body:
            if isinstance(node, ast.Assign) and "__all__" in {ast.unparse(t) for t in node.targets}:
                exported = set(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in loaded | exported:
                        found.append("%s:%d %s" % (name, node.lineno, bound))
    assert found == []
