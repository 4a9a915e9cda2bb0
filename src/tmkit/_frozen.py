"""Frozen records as ``dataclasses.dataclass(frozen=True)`` makes them, built
without importing ``dataclasses``: with ``inspect``, ``ast``, ``dis`` and
``tokenize`` that import took about 10 ms of every ``tm`` command.

``dataclasses`` is imported only to raise ``FrozenInstanceError``, or to make a
record type's ``__dataclass_fields__`` on its first read, from a frozen
dataclass with the same annotations and defaults; ``dataclasses.fields``,
``replace``, ``asdict`` and ``is_dataclass`` read it. This is a module of its
own because, with no bytecode cache, compiling the largest module sets the
memory high-water mark of the import.
"""

from __future__ import annotations

from reprlib import recursive_repr

__all__ = ["factory", "frozen", "replace"]


class factory:
    """A field default made anew for each instance by calling ``make``."""

    __slots__ = ("make",)

    def __init__(self, make) -> None:
        self.make = make

    def __repr__(self) -> str:
        return "<factory>"  # as dataclasses shows a default_factory in a signature


def frozen(cls):
    """Make ``cls`` a frozen record of its annotated fields, in order.

    It gets an ``__init__`` by position or keyword with the declared defaults,
    ``==`` and ``hash`` over the tuple of its fields, no ordering, a dataclass's
    ``repr`` and ``__match_args__``, and ``FrozenInstanceError`` on assignment
    and deletion.
    """
    names = tuple(cls.__annotations__)
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    params = ", ".join(f"{n}=_d_{n}" if n in defaults else n for n in names)
    sets = "".join(
        f"\n    _set(self, {n!r}, _d_{n}.make() if {n} is _d_{n} else {n})"
        if isinstance(defaults.get(n), factory) else f"\n    _set(self, {n!r}, {n})"
        for n in names
    )
    own, other = "".join(f"self.{n}," for n in names), "".join(f"other.{n}," for n in names)
    # Stored through object.__setattr__, as dataclasses does, so instances keep
    # their attribute values inline; exec names the code "<string>", as
    # dataclasses' is named, which the generated-line count gates watch.
    namespace = {"_set": object.__setattr__, **{f"_d_{n}": v for n, v in defaults.items()}}
    exec(
        f"def __init__(self, {params}):{sets}\n"
        "def __eq__(self, other):\n"
        "    if other.__class__ is self.__class__:\n"
        f"        return ({own}) == ({other})\n"
        "    return NotImplemented\n"
        f"def __hash__(self):\n    return hash(({own}))\n",
        namespace,
    )

    def __setattr__(self, name, value):
        if type(self) is cls or name in names:
            _refuse(f"cannot assign to field {name!r}")
        super(cls, self).__setattr__(name, value)

    def __delattr__(self, name):
        if type(self) is cls or name in names:
            _refuse(f"cannot delete field {name!r}")
        super(cls, self).__delattr__(name)

    cls.__init__, cls.__eq__ = namespace["__init__"], namespace["__eq__"]
    cls.__hash__ = namespace["__hash__"]
    cls.__setattr__, cls.__delattr__ = __setattr__, __delattr__
    for name, value in defaults.items():
        if isinstance(value, factory):
            delattr(cls, name)  # as dataclasses leaves no class attribute for it
    cls.__repr__, cls.__match_args__ = _repr, names
    cls.__dataclass_fields__ = _Fields(cls, defaults)
    return cls


def replace(record, **changes):
    """A new record of ``record``'s type, with ``changes`` to its fields."""
    return record.__class__(**{n: getattr(record, n) for n in record.__match_args__} | changes)


@recursive_repr()
def _repr(self) -> str:
    fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__match_args__)
    return f"{self.__class__.__qualname__}({fields})"


def _refuse(message: str):
    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError(message)


class _Fields:
    """``__dataclass_fields__``, made on first read and then stored in its place."""

    def __init__(self, cls, defaults: dict) -> None:
        self.cls, self.defaults = cls, defaults

    def __get__(self, instance, owner=None) -> dict:
        import dataclasses

        cls = self.cls
        namespace = {
            n: dataclasses.field(default_factory=v.make) if isinstance(v, factory) else v
            for n, v in self.defaults.items()
        }
        namespace.update(__annotations__=dict(cls.__annotations__),
                         __module__=cls.__module__, __qualname__=cls.__qualname__)
        shadow = dataclasses.dataclass(frozen=True)(type(cls.__name__, (), namespace))
        cls.__dataclass_fields__ = fields = shadow.__dataclass_fields__
        return fields
