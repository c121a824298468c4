"""``Value``, the base of the package's immutable values, in place of
``@dataclass(frozen=True)``, whose import of ``inspect`` cost each command
13 ms.  Fields are annotations, each shown in the repr and compared by
``==`` and ``hash``; the ``dataclasses`` functions read a frozen twin made
on demand."""

from operator import attrgetter

_set = object.__setattr__  # bound once: called per field of every value built


class _FromTwin(str):
    """The dataclass attribute so named, of a frozen twin of the class."""

    def __get__(self, obj, cls):
        from dataclasses import MISSING, field, make_dataclass
        twin = make_dataclass(cls.__name__, [(n, cls._types[n], field(
            default=cls._defaults.get(n, MISSING))) for n in cls.__match_args__], frozen=True)
        cls.__dataclass_fields__ = twin.__dataclass_fields__
        cls.__dataclass_params__ = twin.__dataclass_params__
        if cls.__repr__ is Value.__repr__:  # same text; pprint lays out only this one
            cls.__repr__ = twin.__repr__
        return getattr(cls, self)


class Value:
    __match_args__ = ()
    _types = _defaults = {}
    __post_init__ = lambda self: None  # where a subclass checks its fields

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__annotations__  # the class's own, from Python 3.10
        cls._types = {**cls._types, **own}
        cls._defaults = {**cls._defaults, **{n: cls.__dict__[n] for n in own if n in cls.__dict__}}
        cls.__match_args__ = names = tuple(cls._types)
        cls._key = attrgetter(*names)
        for name in ("__dataclass_fields__", "__dataclass_params__"):
            setattr(cls, name, _FromTwin(name))

    def __init__(self, *args, **kwargs):
        names = self.__match_args__
        if kwargs or len(args) != len(names):
            given = dict(zip(names, args))
            values = {**self._defaults, **given, **kwargs}
            if len(args) > len(names) or values.keys() != set(names) or given.keys() & kwargs:
                raise TypeError(f"{type(self).__name__}() takes {names} once, got {args}, {kwargs}")
            args = [values[n] for n in names]
        for name, value in zip(names, args):
            _set(self, name, value)
        self.__post_init__()

    def __repr__(self):
        fields = ", ".join([f"{n}={getattr(self, n)!r}" for n in self.__match_args__])
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        return self._key(self) == self._key(other) if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __replace__(self, **changes):  # copy.replace, from Python 3.13
        from dataclasses import replace
        return replace(self, **changes)

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError  # only on a refused write
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")
