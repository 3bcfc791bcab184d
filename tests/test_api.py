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
