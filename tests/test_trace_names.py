"""The benchmark tracer wraps nomsig functions and backend methods by name;
each name it wraps must still exist, or ``perfbench/run.py --trace 1`` fails."""

import importlib
import importlib.util
from pathlib import Path

from nomsig.algebra import MockBackend, RealBackend

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists():
    for mod, fns in _tracing().SPAN_FUNCTIONS.items():
        module = importlib.import_module(f"nomsig.{mod}")
        missing = [fn for fn in fns if not callable(getattr(module, fn, None))]
        assert not missing, f"nomsig.{mod} lacks {missing}"


def test_both_backends_define_the_traced_methods():
    for cls in (RealBackend, MockBackend):
        for name in ("deserialize", "hash_to_g2", "exp"):
            assert name in vars(cls), f"{cls.__name__}.{name}"
