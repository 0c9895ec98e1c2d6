import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import grasscy
from grasscy.errors import GrasscyError


def _grasscy_exceptions():
    for info in pkgutil.iter_modules(grasscy.__path__):
        mod = importlib.import_module(f"grasscy.{info.name}")
        for obj in vars(mod).values():
            if (inspect.isclass(obj) and issubclass(obj, BaseException)
                    and obj.__module__ == mod.__name__):
                yield obj


def test_every_exception_class_is_a_grasscy_error():
    """The CLI maps GrasscyError to an exit code and nothing else, so an
    exception class defined in grasscy outside the hierarchy would end in a
    traceback."""
    found = list(_grasscy_exceptions())
    assert {c.__name__ for c in found} >= {
        "GrasscyError", "Mismatch", "UsageError", "NoAnnihilator", "AmbiguousAnnihilator",
        "NotMUM", "NonIntegralInstanton", "NoDependence", "InexactDivision",
        "TruncationError", "VariableMismatch", "RegistryError", "UnboundedPeriod",
        "ConstraintViolation", "SeriesDomainError",
    }
    assert [c.__name__ for c in found if not issubclass(c, GrasscyError)] == []


def test_no_builtin_runtime_or_arithmetic_error_is_raised():
    """A check inside the chain raises a GrasscyError, so a failure exits 1
    with a JSON line instead of a traceback."""
    raises = re.compile(r"raise (RuntimeError|ArithmeticError)\b")
    found = [f"{path.name}:{n}" for path in sorted(Path(grasscy.__path__[0]).glob("*.py"))
             for n, line in enumerate(path.read_text().splitlines(), 1) if raises.search(line)]
    assert found == []
