import importlib
import inspect
import pkgutil

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
        "ConstraintViolation",
    }
    assert [c.__name__ for c in found if not issubclass(c, GrasscyError)] == []
