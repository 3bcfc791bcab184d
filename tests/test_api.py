import ast
import pathlib

import pretzel
import pretzel.lattice


def test_all_names_resolve():
    for name in pretzel.__all__:
        assert getattr(pretzel, name, None) is not None, name


def test_lattice_globals_the_bench_traces():
    # bench/harness.py records find_embedding's inner checks as spans by
    # replacing these module globals of pretzel.lattice
    for name in ("wu_vertices", "verify_embedding", "bareiss_determinant"):
        assert callable(vars(pretzel.lattice).get(name)), name


def unused_imports(path):
    """'file:line name' for each name an import binds in the module at path
    that no expression of the module reads."""
    tree = ast.parse(path.read_text())
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and \
                node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return ["%s:%d %s" % (path.name, line, name)
            for name, line in bound.items() if name not in read]


def test_no_unused_imports():
    # __init__.py imports only to re-export, so it is exempt
    src = pathlib.Path(pretzel.__file__).parent
    modules = [p for p in sorted(src.glob("*.py")) if p.name != "__init__.py"]
    assert len(modules) >= 7
    assert [u for p in modules for u in unused_imports(p)] == []
