"""Reflective canonical form of a simulated machine, for identity tests.

:func:`machine_state` walks every object reachable from a ``Machine``
through ``__dict__`` and ``__slots__`` and returns nested tuples that
compare equal exactly when two machines hold the same state.  Nothing
in the model has to list its fields for this: a new attribute is
covered the moment it exists.
"""

from collections import OrderedDict, deque
from enum import Enum

#: Attributes that are not machine state: the sanitizer and the
#: parameters (which differ only by ``check``), and per-tick
#: certification scratch that only the skipping path writes.
SKIPPED = frozenset({"checker", "params", "tick_quiet", "drain_activity",
                     "_ping"})

_ATOMS = (int, float, str, bytes, type(None))


def _attributes(obj):
    names = []
    for klass in type(obj).__mro__:
        slots = klass.__dict__.get("__slots__", ())
        names.extend((slots,) if isinstance(slots, str) else slots)
    found = {name: getattr(obj, name) for name in names
             if name != "__dict__" and hasattr(obj, name)}
    found.update(getattr(obj, "__dict__", {}))
    return found


def machine_state(machine):
    """Canonical state of ``machine``.

    An object met a second time is recorded as a back-reference to its
    first visit, so shared structure (window entries in several heaps,
    the lock table every core holds) is compared as sharing and cycles
    terminate.  ``OrderedDict`` order is kept (it is LRU order); plain
    dicts and sets are sorted.  Callables are not state: the sanitizer
    wraps bound methods on instances and hooks in lists, so callable
    attributes are skipped and a callable in a container compares equal
    to any other.  Dict keys and set members are compared by value.
    """
    seen = {}
    alive = []   # keeps every visited object alive, so ids stay unique

    def walk(obj):
        if isinstance(obj, _ATOMS):
            return obj
        if isinstance(obj, Enum):
            return ("enum", type(obj).__name__, obj.name)
        if callable(obj):
            return ("callable",)
        key = id(obj)
        if key in seen:
            return ("ref", seen[key])
        seen[key] = len(seen)
        alive.append(obj)
        if isinstance(obj, OrderedDict):
            return ("odict", tuple((walk(k), walk(v))
                                   for k, v in obj.items()))
        if isinstance(obj, dict):
            keys = sorted(obj, key=lambda k: repr(walk_key(k)))
            return ("dict", tuple((walk_key(k), walk(obj[k]))
                                  for k in keys))
        if isinstance(obj, (set, frozenset)):
            return ("set", tuple(sorted((walk_key(x) for x in obj),
                                        key=repr)))
        if isinstance(obj, (list, tuple, deque)):
            return (type(obj).__name__, tuple(walk(x) for x in obj))
        attrs = _attributes(obj)
        return (type(obj).__name__,
                tuple((name, walk(attrs[name])) for name in sorted(attrs)
                      if name not in SKIPPED
                      and not callable(attrs[name])))

    def walk_key(obj):
        # Keys and set members are hashable values (ints, strings,
        # tuples of them); they are compared by value, never shared.
        if isinstance(obj, tuple):
            return tuple(walk_key(x) for x in obj)
        if isinstance(obj, Enum):
            return ("enum", type(obj).__name__, obj.name)
        return obj

    return walk(machine)
