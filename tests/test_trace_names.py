"""The benchmark tracer wraps nomsig functions and backend methods by name,
and its kernel rows call nomsig functions; each name must still exist, or
``perfbench/run.py --trace 1`` fails."""

import importlib
import importlib.util
from pathlib import Path

from nomsig.algebra import MockBackend, RealBackend

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tracing():
    return _load("tracing")


def test_every_traced_function_exists():
    for mod, fns in _tracing().SPAN_FUNCTIONS.items():
        module = importlib.import_module(f"nomsig.{mod}")
        missing = [fn for fn in fns if not callable(getattr(module, fn, None))]
        assert not missing, f"nomsig.{mod} lacks {missing}"


def test_both_backends_define_the_traced_methods():
    for cls in (RealBackend, MockBackend):
        for name in ("deserialize", "hash_to_g2", "exp"):
            assert name in vars(cls), f"{cls.__name__}.{name}"


class _OnceMeter:
    """A meter whose timed median runs the batch once."""

    def timed_median(self, fn, n):
        fn()
        return 1.0


def test_kernel_rows_run():
    kernels = _load("kernels")
    assert sorted(kernels.kernel_rows(_OnceMeter())) == sorted(kernels.KERNEL_ROWS)
