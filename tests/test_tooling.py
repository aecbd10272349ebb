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
