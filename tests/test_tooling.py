import importlib
import importlib.util
import sys
from pathlib import Path

LAYER_TRACE = Path(__file__).resolve().parent.parent / "annuli_bench" / "layer_trace.py"


def load_layer_trace():
    """annuli_bench/layer_trace.py as a module, without writing its bytecode."""
    spec = importlib.util.spec_from_file_location("_layer_trace_under_test", LAYER_TRACE)
    mod = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(mod)
    finally:
        sys.dont_write_bytecode = saved
    return mod


def test_every_traced_name_resolves():
    """The tracer skips a missing target and its metrics read 0: none may be missing."""
    targets = load_layer_trace().TARGETS
    assert targets
    for metric, module, path, _ in targets:
        owner = importlib.import_module(module)
        parts = path.split(".")
        assert len(parts) <= 2, f"{metric}: {path} is neither a function nor Class.method"
        for name in parts:
            assert hasattr(owner, name), f"{metric}: {module}.{path} does not exist"
            owner = getattr(owner, name)
        assert callable(owner), f"{metric}: {module}.{path} is not callable"


def test_only_the_backend_module_imports_fractions():
    """Every rational goes through the selected backend (`annuli._ratio.QQ`)."""
    import ast

    package = Path(__file__).resolve().parent.parent / "src" / "annuli"
    importers = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else []
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            if any(n.split(".")[0] == "fractions" for n in names):
                importers.append(path.name)
    assert importers == ["_ratio.py"]


def test_only_the_backend_module_reads_the_environment():
    """No hidden knobs: the backend choice is the one setting read from the
    environment (`os.environ`, `os.getenv` or their `from os import` forms)."""
    import ast

    package = Path(__file__).resolve().parent.parent / "src" / "annuli"
    readers = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = [a.name for a in node.names] if isinstance(node, ast.ImportFrom) and node.module == "os" else []
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "os":
                names = [node.attr]
            if any(n in ("environ", "environb", "getenv", "getenvb") for n in names):
                readers.append(path.name)
                break
    assert readers == ["_ratio.py"]


def test_only_the_ring_module_builds_a_split():
    """Every zero-divisor decision is the coefficient ring's: no other module
    builds (and so raises) a `SplitEvent`, and `rings` builds it in one place."""
    import ast

    package = Path(__file__).resolve().parent.parent / "src" / "annuli"
    sites = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            # SplitEvent(...) anywhere, or a bare `raise SplitEvent`
            target = node.func if isinstance(node, ast.Call) else node.exc if isinstance(node, ast.Raise) else None
            name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
            if name == "SplitEvent":
                sites.append(path.name)
    assert sites == ["rings.py"]
