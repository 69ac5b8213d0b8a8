"""Frozen records, the base of every result type, and a lock-free cached attribute.

A :class:`Record` subclass declares its fields as class annotations, in
order, each with an optional class-level default (shared, so never a mutable
one).  The class gets one generated ``__init__``; equality (by class and
field tuple), hashing and the repr are shared, and no attribute can be set
or deleted.  The fields named in ``_hidden`` are set by ``__init__`` but
stay out of equality, hashing, the repr and the JSON.

This replaces ``dataclasses``, whose class processing and the ``inspect``
import it brings were most of the time ``import bbraag.cli`` took.
"""

_set = object.__setattr__


class Record:
    __slots__ = ()
    _fields = _shown = _hidden = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = cls._fields = cls._fields + tuple(cls.__annotations__)
        cls._shown = tuple(f for f in fields if f not in cls._hidden)
        defaults = {f: getattr(cls, f) for f in fields if hasattr(cls, f)}
        params = "".join(f", {f}={f}" if f in defaults else f", {f}" for f in fields)
        body = "".join(f"    _set(self, {f!r}, {f})\n" for f in fields) or "    pass\n"
        namespace = dict(defaults, _set=_set)
        exec(f"def __init__(self{params}):\n{body}", namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._shown])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join([f"{f}={getattr(self, f)!r}" for f in self._shown])
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class cached:
    """``functools.cached_property`` without the lock it takes before Python 3.12.

    The first access stores the value in the instance dict, past a record's
    ``__setattr__``, and later accesses read it there without calling the
    descriptor.
    """

    def __init__(self, fn):
        self.fn = fn
        self.__doc__ = fn.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value
