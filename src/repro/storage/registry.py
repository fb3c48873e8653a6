"""Sparsifier/builder registry: the paper's type-mapping layer.

An *abstract array* is an association list mapping indices to values.  A
concrete storage participates in the framework through two functions
(Section 1.1):

* a **sparsifier** — storage → association list, registered per storage
  *type* and found by inspecting the value a generator traverses (the
  paper's compiler finds it by type inference; Python gives us the type
  at the same place, the generator's source);
* a **builder** — association list → storage, registered per *name* and
  invoked as ``name(args)[ ... ]`` in a query.

Builders receive a :class:`BuildContext` carrying the engine context and
block size, so distributed builders (``tiled``, ``rdd``) can construct
RDD-backed storages while local builders ignore it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Optional

from ..comprehension.errors import SacTypeError

SparsifyFn = Callable[[Any], Iterator[tuple[Any, Any]]]
BuildFn = Callable[["BuildContext", tuple, Iterable[tuple[Any, Any]]], Any]


@dataclass
class BuildContext:
    """Ambient parameters available to builders.

    Attributes:
        engine: the :class:`~repro.engine.context.EngineContext` used by
            distributed builders; ``None`` in purely local evaluation.
        tile_size: side length N of square tiles (paper Section 5).

    Distributed builders size their storages by bytes
    (``ClusterSpec.partitions_for``).
    """

    engine: Optional[Any] = None
    tile_size: int = 100


class StorageRegistry:
    """Maps storage types to sparsifiers and builder names to builders."""

    def __init__(self):
        self._sparsifiers: dict[type, SparsifyFn] = {}
        self._builders: dict[str, BuildFn] = {}

    # -- registration ---------------------------------------------------

    def register_sparsifier(self, storage_type: type, fn: SparsifyFn) -> None:
        self._sparsifiers[storage_type] = fn

    def register_builder(self, name: str, fn: BuildFn) -> None:
        self._builders[name] = fn

    # -- lookup -----------------------------------------------------------

    def sparsifier_for(self, value: Any) -> Optional[SparsifyFn]:
        """The sparsifier registered for ``value``'s type, if any.

        Subclasses inherit their base's sparsifier unless they register
        their own.
        """
        for cls in type(value).__mro__:
            if cls in self._sparsifiers:
                return self._sparsifiers[cls]
        return None

    def is_storage(self, value: Any) -> bool:
        return self.sparsifier_for(value) is not None

    def sparsify(self, value: Any) -> Iterator[tuple[Any, Any]]:
        """Up-coerce a storage to its association list."""
        fn = self.sparsifier_for(value)
        if fn is None:
            raise SacTypeError(
                f"no sparsifier registered for {type(value).__name__}"
            )
        return fn(value)

    def build(
        self,
        name: str,
        args: tuple,
        items: Iterable[tuple[Any, Any]],
        context: Optional[BuildContext] = None,
    ) -> Any:
        """Down-coerce an association list via the named builder."""
        try:
            fn = self._builders[name]
        except KeyError:
            raise SacTypeError(
                f"unknown builder {name!r}; known: {sorted(self._builders)}"
            ) from None
        return fn(context or BuildContext(), args, items)


#: The global registry; storage modules register themselves on import.
REGISTRY = StorageRegistry()
