"""Frozen value records: what this package used of `@dataclass(frozen=True)`,
without the standard library's dataclass module, whose import loads
`inspect`, `ast`, `dis` and `tokenize`, and which `exec`s generated methods
for every class it decorates."""

from __future__ import annotations

from operator import attrgetter

set_field = object.__setattr__


def record(cls):
    """Make `cls` an immutable record of the fields its own annotations
    name, in order, with defaults from its class attributes: `__init__`
    by position or keyword, then `__post_init__` if defined; `__eq__`
    (same class, equal fields) and `__hash__` (over the fields) unless the
    class defines its own; `__repr__`; and no assignment or deletion."""
    names = tuple(cls.__dict__.get("__annotations__", {}))
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    count = len(names)
    post_init = cls.__dict__.get("__post_init__")
    fields = attrgetter(*names) if count > 1 else lambda self: (getattr(self, names[0]),)

    def bind(args, kwargs):
        """Every field's value, from positional and keyword arguments."""
        if len(args) > count:
            raise TypeError(f"{cls.__name__}() takes {count} arguments but {len(args)} were given")
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names or name in values:
                raise TypeError(f"{cls.__name__}() got an unexpected or repeated argument {name!r}")
            values[name] = value
        missing = [n for n in names if n not in values and n not in defaults]
        if missing:
            raise TypeError(f"{cls.__name__}() missing arguments: {', '.join(missing)}")
        return [values[n] if n in values else defaults[n] for n in names]

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != count:
            args = bind(args, kwargs)
        for name, value in zip(names, args):
            set_field(self, name, value)
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return fields(self) == fields(other)

    def __repr__(self):
        return f"{cls.__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in names)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a {cls.__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a {cls.__name__}")

    cls.__init__ = __init__
    if "__eq__" not in cls.__dict__:
        cls.__eq__ = __eq__
    if cls.__dict__.get("__hash__") is None:
        cls.__hash__ = lambda self: hash(fields(self))
    if "__repr__" not in cls.__dict__:
        cls.__repr__ = __repr__
    cls.__setattr__ = __setattr__
    cls.__delattr__ = __delattr__
    return cls
