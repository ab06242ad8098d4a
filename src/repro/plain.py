"""Plain-data codec: the one ``to_dict`` / ``from_dict`` of every declarative spec.

Scenario, sweep, traffic and megafleet specs are dataclasses that round-trip
through JSON.  :class:`PlainData` derives both directions from the dataclass
fields, so a field is declared once:

* ``to_dict`` walks :func:`dataclasses.fields`: nested dataclasses become
  dictionaries, tuples become lists, dictionaries and lists are copied.
* ``from_dict`` coerces each key by its field's type hint -- ``int``,
  ``float``, ``str``, ``Optional``, ``List`` / ``Tuple`` / ``Sequence``,
  ``Dict`` (copied, values kept as given) and nested dataclasses.  Absent keys
  take the dataclass default; unknown keys raise :class:`ValueError` naming
  them, so a mistyped key cannot silently run the default.

One finiteness rule covers every spec number: building a ``PlainData`` spec
rejects a NaN or infinite number anywhere in its fields, nested dictionaries,
lists and tuples included, with ``ValueError("<Class>.<path> must be finite
(got nan)")``.  ``from_dict`` checks the raw mapping before any coercion (so
``int(inf)`` never runs), and construction before the class's own
``__post_init__``, so per-class checks are plain range checks.

:func:`require_numeric_params` refuses a string, or a flag inside a number
list, where a free-form parameter block (a phase's ``trace``, a traffic
profile) holds a number.

:class:`Catalog` is the named registry every spec kind keeps its ready-made
entries in (scenarios, sweeps, megafleets), and
:func:`require_positive_finite` the check of the few timings that are
arguments rather than spec fields (a run's duration override, a lease).

Stdlib imports only: like :mod:`repro.workers`, this module sits below every
``repro`` package.
"""

from __future__ import annotations

import collections.abc
import dataclasses
import functools
import math
import typing
from typing import Any, Callable, Dict, Iterator, List, Mapping


def _encode(value: Any) -> Any:
    if dataclasses.is_dataclass(value):
        return {f.name: _encode(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {key: _encode(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode(item) for item in value]
    return value


def _keep(value: Any) -> Any:
    return value


def _decoder(hint: Any) -> Callable[[Any], Any]:
    """The coercion of one plain value to the type ``hint`` names."""
    if hint in (int, float, str):
        return hint
    if dataclasses.is_dataclass(hint):
        return lambda value: value if isinstance(value, hint) else _decode(hint, value)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union and type(None) in args:
        inner = _decoder(next(arg for arg in args if arg is not type(None)))
        return lambda value: None if value is None else inner(value)
    if origin in (list, tuple, collections.abc.Sequence):
        item = _decoder(args[0]) if args else _keep
        container = tuple if origin is tuple else list
        return lambda value: container(item(entry) for entry in value)
    if origin is dict:
        return dict
    return _keep


@functools.lru_cache(maxsize=None)
def _field_decoders(cls: type) -> Dict[str, Callable[[Any], Any]]:
    hints = typing.get_type_hints(cls)
    return {f.name: _decoder(hints[f.name]) for f in dataclasses.fields(cls) if f.init}


def _decode(cls: type, data: Mapping[str, Any]) -> Any:
    """Build the dataclass ``cls`` from its plain-data form."""
    decoders = _field_decoders(cls)
    unknown = sorted(set(data) - set(decoders))
    if unknown:
        raise ValueError(
            f"unknown {cls.__name__} key(s) {unknown}; valid keys: {sorted(decoders)}"
        )
    _require_finite(cls.__name__, data)
    return cls(**{name: decoders[name](value) for name, value in data.items()})


def _require_finite(path: str, value: Any) -> None:
    """The finiteness rule: ``ValueError`` naming the first NaN or infinite number
    in ``value``, itself named ``path``.  A nested :class:`PlainData` is skipped:
    it checked its own fields when it was built."""
    if isinstance(value, dict):
        children, step = value.items(), ".{}"
    elif isinstance(value, (list, tuple)):
        children, step = enumerate(value), "[{}]"
    elif dataclasses.is_dataclass(value) and not isinstance(value, PlainData):
        children, step = vars(value).items(), ".{}"
    else:
        return
    for key, item in children:
        if isinstance(item, float):
            if not math.isfinite(item):
                raise ValueError(f"{path}{step.format(key)} must be finite (got {item!r})")
        elif not isinstance(item, (str, int)) and item is not None:
            _require_finite(path + step.format(key), item)


#: Free-form parameters that list names; every other list parameter lists numbers.
NAME_LIST_PARAMS = frozenset({"dimensions"})


def require_numeric_params(path: str, params: Mapping[str, Any]) -> None:
    """The number rule of a free-form ``{"kind": ..., **params}`` block.

    No type hint coerces these values, so ``"12"`` or ``"nan"`` would reach a
    factory that compares or converts it.  Every parameter but ``kind`` is a
    number, a flag or a list of numbers (:data:`NAME_LIST_PARAMS` list
    names): a string, or a string or flag inside a number list, is a
    ``ValueError`` naming ``<path>.<key>`` and the list index.
    """
    for key, value in params.items():
        if key == "kind":
            continue
        if isinstance(value, str):
            raise ValueError(f"{path}.{key} must be a number (got the string {value!r})")
        if isinstance(value, (list, tuple)) and key not in NAME_LIST_PARAMS:
            for index, item in enumerate(value):
                if isinstance(item, bool) or not isinstance(item, (int, float)):
                    got = f"the string {item!r}" if isinstance(item, str) else repr(item)
                    raise ValueError(f"{path}.{key}[{index}] must be a number (got {got})")


def require_positive_finite(name: str, value: float) -> None:
    """Raise ``ValueError`` unless ``value`` is a positive, finite number.

    For arguments that are not spec fields, which the finiteness rule does not
    see; written as ``not (valid)`` so NaN fails too.
    """
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite (got {value!r})")


class PlainData:
    """Mixin giving a dataclass its field-driven ``to_dict`` / ``from_dict``
    and the finiteness rule, checked before the class's own ``__post_init__``."""

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__post_init__")
        if own is not None:
            @functools.wraps(own)
            def __post_init__(self) -> None:
                PlainData.__post_init__(self)
                own(self)
            cls.__post_init__ = __post_init__

    def __post_init__(self) -> None:
        # Only the dataclass fields are set this early, so vars() is exactly them.
        _require_finite(type(self).__name__, vars(self))

    def to_dict(self) -> dict:
        """Plain-data form (JSON-safe); ``type(self).from_dict(self.to_dict()) == self``."""
        return _encode(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> Any:
        """Inverse of :meth:`to_dict` (accepts JSON-decoded dictionaries)."""
        return _decode(cls, data)


class Catalog:
    """Named spec factories of one kind; each lookup returns a fresh spec.

    ``spec_class`` is the :class:`PlainData` dataclass the entries produce, so
    a spec file of this kind decodes with ``catalog.spec_class.from_dict``.
    """

    def __init__(self, kind: str, spec_class: type) -> None:
        self.kind = kind
        self.spec_class = spec_class
        self._factories: Dict[str, Callable[[], Any]] = {}

    def register(self, factory: Callable[[], Any]) -> Callable[[], Any]:
        """Register a zero-argument factory under the name of the spec it returns.

        Usable as a decorator.  The factory runs once here to validate its spec
        and learn its name; duplicate names are rejected.
        """
        name = factory().name
        if name in self._factories:
            raise ValueError(f"{self.kind} {name!r} already registered")
        self._factories[name] = factory
        return factory

    def names(self) -> List[str]:
        """Sorted names of every registered entry."""
        return sorted(self._factories)

    def get(self, name: str) -> Any:
        """A fresh spec for ``name``; raises ``KeyError`` listing the names if unknown."""
        try:
            factory = self._factories[name]
        except KeyError:
            raise KeyError(
                f"unknown {self.kind} {name!r}; available: {', '.join(self.names())}"
            ) from None
        return factory()

    def __iter__(self) -> Iterator[Any]:
        """Fresh specs for every entry, in name order."""
        return (self.get(name) for name in self.names())
