"""Pluggable object stores backing the BlockManager's spill tier.

numpywren's "Infinite RAM" design treats S3 as the memory abstraction:
compute is decoupled from storage, and working sets larger than RAM
simply live behind a put/get byte-blob API.  This module is that API for
the engine — S3-shaped (opaque string keys, whole-object put/get/delete,
prefix listing) so a real remote backend can slot in later, with a
local-disk backend now.

The stores deal in raw ``bytes``; serialization policy (pickle, layout,
compression) belongs to the caller (the
:class:`~repro.engine.block_manager.BlockManager`).  ``LocalDiskStore``
writes atomically (temp file + rename) so a reader never observes a
half-written object, and enforces an optional capacity so a full spill
volume fails loudly instead of silently corrupting the tier.

This module intentionally imports nothing from the rest of the package:
the engine loads it lazily to keep the ``storage`` ↔ ``engine`` import
graph acyclic.
"""

from __future__ import annotations

import os
import tempfile
import threading
from typing import Iterator, Optional


class ObjectStoreError(Exception):
    """Base class for spill-store failures."""


class SpillStoreFullError(ObjectStoreError):
    """The spill volume has no room for another object.

    Raised on a capacity breach (or ``ENOSPC`` from the filesystem).  The
    message names the store, the object, and the remedies, because this
    surfaces mid-job to users who never asked for a spill tier directly.
    """


class ObjectNotFoundError(ObjectStoreError):
    """``get``/``size`` was asked for a key the store does not hold."""


class ObjectStore:
    """S3-shaped key/value blob store interface.

    Keys are opaque ``/``-separated strings (``spill/cache/12/3``).  All
    methods are thread-safe in every provided implementation; concurrent
    ``put`` to the same key keeps one complete object.
    """

    def put(self, key: str, data: bytes) -> None:
        """Store ``data`` under ``key``, replacing any existing object."""
        raise NotImplementedError

    def get(self, key: str) -> bytes:
        """The object's bytes; raises :class:`ObjectNotFoundError`."""
        raise NotImplementedError

    def delete(self, key: str) -> bool:
        """Remove ``key`` if present; returns whether it existed."""
        raise NotImplementedError

    def exists(self, key: str) -> bool:
        raise NotImplementedError

    def size(self, key: str) -> int:
        """Stored size in bytes; raises :class:`ObjectNotFoundError`."""
        raise NotImplementedError

    def list(self, prefix: str = "") -> Iterator[str]:
        """All keys starting with ``prefix`` (no order guaranteed)."""
        raise NotImplementedError

    def close(self) -> None:
        """Release resources; the store may not be used afterwards."""


class InMemoryStore(ObjectStore):
    """Dict-backed store for tests — same semantics, no filesystem."""

    def __init__(self, capacity_bytes: Optional[int] = None):
        self._objects: dict[str, bytes] = {}
        self._capacity = capacity_bytes
        self._bytes = 0
        self._lock = threading.Lock()

    def put(self, key: str, data: bytes) -> None:
        with self._lock:
            projected = self._bytes - len(self._objects.get(key, b"")) + len(data)
            if self._capacity is not None and projected > self._capacity:
                raise SpillStoreFullError(
                    f"in-memory spill store is full: writing {len(data)} bytes "
                    f"to {key!r} would exceed the {self._capacity}-byte "
                    f"capacity (currently {self._bytes} bytes)"
                )
            self._bytes = projected
            self._objects[key] = data

    def get(self, key: str) -> bytes:
        with self._lock:
            try:
                return self._objects[key]
            except KeyError:
                raise ObjectNotFoundError(key) from None

    def delete(self, key: str) -> bool:
        with self._lock:
            data = self._objects.pop(key, None)
            if data is None:
                return False
            self._bytes -= len(data)
            return True

    def exists(self, key: str) -> bool:
        with self._lock:
            return key in self._objects

    def size(self, key: str) -> int:
        with self._lock:
            try:
                return len(self._objects[key])
            except KeyError:
                raise ObjectNotFoundError(key) from None

    def list(self, prefix: str = "") -> Iterator[str]:
        with self._lock:
            keys = [key for key in self._objects if key.startswith(prefix)]
        return iter(keys)


class LocalDiskStore(ObjectStore):
    """Object store over a local directory (one file per key).

    Keys map to paths under ``root`` (each ``/`` segment a directory).
    Writes go through a temp file in the same directory and an atomic
    ``os.replace``, so concurrent readers and a crash mid-write both see
    either the old complete object or the new one — never a torn file.

    Args:
        root: directory holding the objects; created if missing.  When
            ``None``, a private temp directory is created and removed on
            :meth:`close`.
        capacity_bytes: optional cap on total stored bytes; a ``put``
            that would exceed it raises :class:`SpillStoreFullError`.
    """

    def __init__(
        self,
        root: Optional[str] = None,
        capacity_bytes: Optional[int] = None,
    ):
        if root is None:
            self._tmpdir: Optional[tempfile.TemporaryDirectory] = (
                tempfile.TemporaryDirectory(prefix="repro-spill-")
            )
            root = self._tmpdir.name
        else:
            self._tmpdir = None
            os.makedirs(root, exist_ok=True)
        self.root = root
        self._capacity = capacity_bytes
        #: Tracked sizes of live objects; also the source of truth for
        #: the capacity check, so external files in ``root`` don't count.
        self._sizes: dict[str, int] = {}
        self._bytes = 0
        self._lock = threading.Lock()

    def _path(self, key: str) -> str:
        parts = [part for part in key.split("/") if part not in ("", ".", "..")]
        if not parts:
            raise ValueError(f"invalid object key {key!r}")
        return os.path.join(self.root, *parts)

    def put(self, key: str, data: bytes) -> None:
        path = self._path(key)
        with self._lock:
            projected = self._bytes - self._sizes.get(key, 0) + len(data)
            if self._capacity is not None and projected > self._capacity:
                raise SpillStoreFullError(
                    f"spill directory {self.root!r} is full: writing "
                    f"{len(data)} bytes to {key!r} would exceed the "
                    f"configured capacity of {self._capacity} bytes "
                    f"(currently {self._bytes} bytes). Raise the spill "
                    f"capacity, point REPRO_SPILL_DIR at a larger volume, "
                    f"or raise the memory limit so less data spills."
                )
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd, tmp_path = tempfile.mkstemp(
                prefix=".tmp-", dir=os.path.dirname(path)
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(data)
                os.replace(tmp_path, path)
            except OSError as exc:
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass
                import errno

                if exc.errno == errno.ENOSPC:
                    raise SpillStoreFullError(
                        f"spill directory {self.root!r} has no space left "
                        f"on device while writing {key!r} ({len(data)} "
                        f"bytes). Free disk space, point REPRO_SPILL_DIR "
                        f"at a larger volume, or raise the memory limit "
                        f"so less data spills."
                    ) from exc
                raise
            self._bytes = projected
            self._sizes[key] = len(data)

    def get(self, key: str) -> bytes:
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                return handle.read()
        except FileNotFoundError:
            raise ObjectNotFoundError(key) from None

    def delete(self, key: str) -> bool:
        path = self._path(key)
        with self._lock:
            self._bytes -= self._sizes.pop(key, 0)
            try:
                os.unlink(path)
            except FileNotFoundError:
                return False
            return True

    def exists(self, key: str) -> bool:
        return os.path.exists(self._path(key))

    def size(self, key: str) -> int:
        try:
            return os.path.getsize(self._path(key))
        except FileNotFoundError:
            raise ObjectNotFoundError(key) from None

    def list(self, prefix: str = "") -> Iterator[str]:
        for dirpath, _dirnames, filenames in os.walk(self.root):
            for name in filenames:
                if name.startswith(".tmp-"):
                    continue
                rel = os.path.relpath(os.path.join(dirpath, name), self.root)
                key = rel.replace(os.sep, "/")
                if key.startswith(prefix):
                    yield key

    def close(self) -> None:
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None

    def __repr__(self) -> str:
        return (
            f"LocalDiskStore(root={self.root!r}, bytes={self._bytes}, "
            f"capacity={self._capacity})"
        )
