"""Frozen records: the part of frozen dataclasses this package uses.

`@record` reads the fields from the class's annotations, those of record
bases first, and gives the class `__init__`, an `__eq__` that matches only
the same class, `__hash__` over the fields not marked `hash=False`, the
`Cls(a=..., b=...)` repr and an `AttributeError` on assignment or deletion.
`__init__` binds its arguments by position and name, fills defaults and
`default_factory` fields, leaves `init=False` fields to `__post_init__`
(which sets them with `object.__setattr__`) and then calls it.  Every method
is a closure over the field names, so building a class execs no source and
imports neither `dataclasses` nor `inspect`: a cold CLI call pays for
neither.  Equality and the hash compare the same tuples as a dataclass's,
so equal records hash as they would there.
"""

from operator import attrgetter

_MISSING = object()
_set = object.__setattr__


class Field:
    __slots__ = ("name", "default", "default_factory", "hash", "init")

    def __init__(self, default=_MISSING, default_factory=_MISSING, hash=True, init=True):
        self.name = None
        self.default = default
        self.default_factory = default_factory
        self.hash = hash
        self.init = init

    def fill(self, qualname: str):
        """The value of this field when the constructor was not given it."""
        if self.default_factory is not _MISSING:
            return self.default_factory()
        if self.default is _MISSING:
            raise TypeError(f"{qualname}() missing required argument {self.name!r}")
        return self.default


def field(*, default_factory=_MISSING, hash=True, init=True) -> Field:
    return Field(_MISSING, default_factory, hash, init)


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r} of a frozen record")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r} of a frozen record")


def _init(qualname: str, params, post):
    names = tuple(f.name for f in params)
    n = len(names)

    def bind(args, kwargs):
        if len(args) > n:
            raise TypeError(f"{qualname}() takes {n} arguments but {len(args)} were given")
        for name in names[:len(args)]:
            if name in kwargs:
                raise TypeError(f"{qualname}() got multiple values for argument {name!r}")
        values = args + tuple(kwargs.pop(f.name) if f.name in kwargs else f.fill(qualname)
                              for f in params[len(args):])
        if kwargs:
            raise TypeError(f"{qualname}() got an unexpected keyword argument {min(kwargs)!r}")
        return values

    # A call that passes every field by position skips `bind`.
    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n:
            args = bind(args, kwargs)
        for name, value in zip(names, args):
            _set(self, name, value)
        if post is not None:
            post(self)
    return __init__


def record(cls):
    """Make cls a frozen record (see the module docstring)."""
    fields = {}
    for base in reversed(cls.__mro__[1:]):
        fields.update((f.name, f) for f in base.__dict__.get("__record_fields__", ()))
    for name in cls.__dict__.get("__annotations__", {}):
        value = cls.__dict__.get(name, _MISSING)
        f = value if isinstance(value, Field) else Field(default=value)
        f.name = name
        fields[name] = f
        if isinstance(value, Field):         # the class keeps only a plain default
            delattr(cls, name)
    fields = tuple(fields.values())
    params = [f for f in fields if f.init]
    names = tuple(f.name for f in fields)
    hashed = tuple(f.name for f in fields if f.hash)
    compared, hash_key = attrgetter(*names), attrgetter(*hashed)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return compared(self) == compared(other)
        return NotImplemented

    if len(hashed) == 1:                     # attrgetter gives the bare value
        def __hash__(self):
            return hash((hash_key(self),))
    else:
        def __hash__(self):
            return hash(hash_key(self))

    def __repr__(self):
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{self.__class__.__qualname__}({inner})"

    methods = {"__init__": _init(cls.__qualname__, params, getattr(cls, "__post_init__", None)),
               "__eq__": __eq__, "__hash__": __hash__, "__repr__": __repr__,
               "__setattr__": _frozen_setattr, "__delattr__": _frozen_delattr}
    for name, fn in methods.items():
        setattr(cls, name, fn)
    cls.__record_fields__ = fields
    return cls
