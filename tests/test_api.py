import ast
import enum
import inspect
import pathlib

import pretzel
import pretzel.lattice


def test_all_names_resolve():
    for name in pretzel.__all__:
        assert getattr(pretzel, name, None) is not None, name


# The public API: each name of pretzel.__all__ with the signature it is
# called with (parameters named with a leading _ left out), the member
# values of an enum, None for an exception class.  A change here is a
# change of the public API and has to be made on purpose.
PUBLIC_API = {
    "ClassRecord":
        "(class_key: 'tuple[int, ...]', kind: 'Kind', subcase: 'Subcase', "
        "fiberable: 'bool', det: 'int', det_square: 'bool', sigma: 'int', "
        "donaldson: 'str', family: 'str', exceptional: 'bool', status: "
        "'Status', nodes: 'int') -> None",
    "DonaldsonStatus": ("embeddable", "not_embeddable", "inconclusive"),
    "EmbeddingResult":
        "(status: 'DonaldsonStatus', witness: 'tuple[tuple[int, ...], ...] | "
        "None', nodes: 'int') -> None",
    "FiberStatus": (
        "fibered", "not_fibered", "reduces_to_type3", "not_a_knot"),
    "FiberVerdict": "(status: 'FiberStatus', subcase: 'Subcase') -> None",
    "Kind": ("type1", "type2", "type3", "link"),
    "MutationClass":
        "(multiset: 'tuple[int, ...]', mirror_normalized: 'tuple[int, ...]') "
        "-> None",
    "NotAKnotError": None,
    "ObstructionReport":
        "(det_value: 'int', det_is_square: 'bool', signature: 'int', "
        "donaldson: 'EmbeddingResult | None') -> None",
    "PlumbingError": None,
    "ProjectedLattice":
        "(matrix: 'tuple[tuple[int, ...], ...]', rows: 'tuple[tuple[int, "
        "...], ...]', vertices: 'tuple[int, ...]') -> None",
    "RibbonFamily":
        "(tag: 'str', pairs: 'tuple[int, ...]' = (), k: 'int | None' = None, "
        "t: 'int | None' = None, mirrored: 'bool' = False) -> None",
    "SearchConfig":
        "(wu_pruning: 'bool' = True, node_limit: 'int | None' = None) -> "
        "None",
    "SingularMod2Error": None,
    "StarGraph":
        "(center_weight: 'int', legs: 'tuple[tuple[int, ...], ...]', "
        "mirrored: 'bool' = False) -> None",
    "Status": (
        "ribbon_known", "not_slice", "exceptional", "obstructions_vanish",
        "not_applicable", "inconclusive"),
    "Subcase": ("T1", "T2A", "T2B", "T2C", "T3A", "T3B", "T3C", "none"),
    "Verdict":
        "(params: 'tuple[int, ...]', normalized: 'tuple[int, ...]', kind: "
        "'Kind', fibered: 'FiberVerdict', obstructions: 'ObstructionReport | "
        "None', family: 'RibbonFamily | None', all_families: "
        "'tuple[RibbonFamily, ...]', exceptional: 'bool', detectably_ribbon: "
        "'bool', status: 'Status', reason: 'str | None' = None) -> None",
    "ZeroParameterError": None,
    "analyze": "(params, node_limit: 'int | None' = None) -> 'Verdict'",
    "as_params": "(params) -> 'tuple[int, ...]'",
    "aux_link": "(params, kind: 'Kind') -> 'tuple[int, ...]'",
    "bareiss_determinant": "(matrix) -> 'int'",
    "class_fiberable": "(ms)",
    "class_record":
        "(ms, node_limit: 'int | None' = None, cache: 'dict | None' = None) "
        "-> 'ClassRecord'",
    "classify_type": "(params) -> 'Kind'",
    "detectably_ribbon_reduce": "(params) -> 'tuple[int, ...]'",
    "determinant": "(params) -> 'int'",
    "enumerate_classes":
        "(max_strands: 'int', max_abs_param: 'int', node_limit: 'int | None' "
        "= None, cache: 'dict | None' = None)",
    "euler_number": "(params) -> 'Fraction'",
    "even_last_orientations": "(params) -> 'list[tuple[int, ...]]'",
    "fiber_subcase": "(params) -> 'Subcase'",
    "find_embedding":
        "(g_or_matrix, config: 'SearchConfig | None' = None) -> "
        "'EmbeddingResult'",
    "graph_signature": "(g: 'StarGraph') -> 'int'",
    "incidence_matrix": "(g: 'StarGraph') -> 'list[list[int]]'",
    "is_detectably_ribbon": "(params) -> 'bool'",
    "is_exceptional": "(c: 'MutationClass') -> 'bool'",
    "is_fibered": "(params) -> 'FiberVerdict'",
    "is_negative_definite": "(matrix) -> 'bool'",
    "knot_classes": "(max_strands: 'int', max_abs_param: 'int')",
    "match_family":
        "(c: 'MutationClass') -> 'tuple[RibbonFamily | None, "
        "tuple[RibbonFamily, ...]]'",
    "mirror": "(params) -> 'tuple[int, ...]'",
    "mutation_class": "(params) -> 'MutationClass'",
    "negative_definite_graph": "(params) -> 'StarGraph'",
    "normalize": "(params) -> 'tuple[int, ...]'",
    "parse_params": "(text: 'str') -> 'tuple[int, ...]'",
    "project_embedding": "(witness, basis_subset) -> 'ProjectedLattice'",
    "signature": "(params) -> 'int'",
    "star_graph": "(params) -> 'StarGraph'",
    "to_dot": "(g: 'StarGraph', wu_vertices=()) -> 'str'",
    "verify_embedding": "(g_or_matrix, witness) -> 'bool'",
    "wu_class": "(g_or_matrix) -> 'tuple[int, ...]'",
    "wu_vertices": "(g_or_matrix) -> 'tuple[int, ...]'",
}


def public_api():
    api = {}
    for name in pretzel.__all__:
        obj = getattr(pretzel, name)
        if isinstance(obj, type) and issubclass(obj, enum.Enum):
            # an enum's signature is that of Python's Enum call, which
            # varies across Python versions; its members are the API
            api[name] = tuple(m.value for m in obj)
        elif isinstance(obj, type) and issubclass(obj, Exception):
            api[name] = None
        else:
            sig = inspect.signature(obj)
            api[name] = str(sig.replace(parameters=[
                p for p in sig.parameters.values()
                if not p.name.startswith("_")]))
    return api


def test_public_api_pinned():
    assert sorted(pretzel.__all__) == sorted(PUBLIC_API)
    got = public_api()
    assert {n: got[n] for n in got if got[n] != PUBLIC_API[n]} == {}


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
    assert len(modules) >= 6
    assert [u for p in modules for u in unused_imports(p)] == []


def test_package_imports_every_module_but_cli():
    # the package holds the library and its command line; a module that
    # __init__ does not import is neither (test oracles live in tests/)
    src = pathlib.Path(pretzel.__file__).parent
    init = ast.parse((src / "__init__.py").read_text())
    imported = {n.module for n in init.body
                if isinstance(n, ast.ImportFrom) and n.level == 1}
    modules = {p.stem for p in src.glob("*.py")} - {"__init__", "cli"}
    assert modules == imported


def private_definitions(tree):
    """(name, line) for each module-level function, class or constant of
    tree whose name has one leading underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno


def test_no_orphaned_private_helpers():
    # a private helper that no module of the package reads is left over
    src = pathlib.Path(pretzel.__file__).parent
    trees = {p.name: ast.parse(p.read_text())
             for p in sorted(src.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
            elif isinstance(n, ast.ImportFrom):
                read.update(alias.name for alias in n.names)
    defined = [(f, name, line) for f, tree in trees.items()
               for name, line in private_definitions(tree)]
    assert len(defined) >= 20
    assert ["%s:%d %s" % d for d in defined if d[1] not in read] == []
