"""Instance-level method overrides that undo cleanly.

Mitigations interpose on one machine's resources by shadowing a method
with an instance attribute. Undoing that by assigning the saved bound
method back would leave the instance attribute in place: class lookup
stays shadowed, so a class-level patch installed later never reaches the
object, and the bound method in the instance dict is one more reference
cycle. :class:`MethodOverride` pops the override instead.
"""

from __future__ import annotations

from typing import Any, Callable


class MethodOverride:
    """Shadow ``obj.<name>`` with ``wrapper`` until :meth:`remove`.

    ``original`` is what the name resolved to before, for the wrapper to
    call through to. Overrides stack: one installed over another
    instance-level wrapper reinstalls that wrapper on removal (undo in
    reverse order of installation).
    """

    def __init__(self, obj: Any, name: str, wrapper: Callable):
        self.obj = obj
        self.name = name
        self.original = getattr(obj, name)
        self._stacked = name in obj.__dict__
        setattr(obj, name, wrapper)

    def remove(self) -> None:
        """Restore class lookup, or the instance-level wrapper beneath."""
        self.obj.__dict__.pop(self.name, None)
        if self._stacked:
            setattr(self.obj, self.name, self.original)
