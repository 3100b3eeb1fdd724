"""The controller's in-memory buffer database.

Pure bookkeeping (no RPC, no fabric): which buffers exist, who serves them,
who uses them.  The controller wraps every mutation so it can be mirrored to
the secondary; the database itself also journals mutations as ``(op, args)``
tuples, which is what flows over the mirroring channel.

Free-buffer index: alongside the records the database keeps, for every
``(is_zombie, host)`` pair, the sorted ids of the unallocated buffers that
host serves (``LOST`` and ``ACTIVE`` buffers share the non-zombie tier).
The index is derived state: every mutation below maintains it (``apply``
included, so a standby's copy is as current as the primary's) and
``load_snapshot`` rebuilds it from the records.  The allocation engine,
``free_buffers()`` and the federation's lending queries all read it.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Dict, List, Optional, Tuple

from repro.core.protocol import BufferDescriptor, BufferKind
from repro.errors import BufferError_, ControllerError


class BufferDatabase:
    """Buffer records indexed by id, host and user."""

    def __init__(self) -> None:
        self._buffers: Dict[int, BufferDescriptor] = {}
        #: is_zombie -> host -> sorted ids of that host's free buffers
        #: (hosts with no free buffer in the tier are absent).
        self._free: Dict[bool, Dict[str, List[int]]] = {True: {}, False: {}}
        self.journal: List[Tuple[str, tuple]] = []

    # -- mutations (journaled) ------------------------------------------------
    def add(self, descriptor: BufferDescriptor) -> None:
        if descriptor.buffer_id in self._buffers:
            raise BufferError_(f"duplicate buffer id {descriptor.buffer_id}")
        self._store(descriptor)
        self.journal.append(("add", (descriptor,)))

    def remove(self, buffer_id: int) -> BufferDescriptor:
        descriptor = self._discard(buffer_id)
        if descriptor is None:
            raise BufferError_(f"unknown buffer id {buffer_id}")
        self.journal.append(("remove", (buffer_id,)))
        return descriptor

    def assign(self, buffer_id: int, user: str) -> BufferDescriptor:
        descriptor = self._get(buffer_id)
        if descriptor.allocated:
            raise BufferError_(
                f"buffer {buffer_id} already allocated to {descriptor.user!r}"
            )
        updated = descriptor.with_user(user)
        self._store(updated)
        self.journal.append(("assign", (buffer_id, user)))
        return updated

    def unassign(self, buffer_id: int) -> BufferDescriptor:
        descriptor = self._get(buffer_id)
        if not descriptor.allocated:
            raise BufferError_(f"buffer {buffer_id} is not allocated")
        updated = descriptor.with_user(None)
        self._store(updated)
        self.journal.append(("unassign", (buffer_id,)))
        return updated

    def set_kind(self, buffer_id: int, kind: BufferKind) -> BufferDescriptor:
        """Re-label a buffer when its serving host changes power state."""
        updated = self._get(buffer_id).with_kind(kind)
        self._store(updated)
        self.journal.append(("set_kind", (buffer_id, kind)))
        return updated

    def apply(self, op: str, args: tuple) -> None:
        """Apply a journaled mutation (the secondary's mirroring path)."""
        if op == "add":
            self._store(*args)
        elif op == "remove":
            self._discard(*args)
        elif op == "assign":
            buffer_id, user = args
            self._store(self._get(buffer_id).with_user(user))
        elif op == "unassign":
            (buffer_id,) = args
            self._store(self._get(buffer_id).with_user(None))
        elif op == "set_kind":
            buffer_id, kind = args
            self._store(self._get(buffer_id).with_kind(kind))
        else:
            raise ControllerError(f"unknown mirrored operation {op!r}")
        self.journal.append((op, args))

    # -- queries --------------------------------------------------------
    def get(self, buffer_id: int) -> BufferDescriptor:
        return self._get(buffer_id)

    def __len__(self) -> int:
        return len(self._buffers)

    def __contains__(self, buffer_id: int) -> bool:
        return buffer_id in self._buffers

    def all_buffers(self) -> List[BufferDescriptor]:
        return list(self._buffers.values())

    def by_host(self, host: str) -> List[BufferDescriptor]:
        return [b for b in self._buffers.values() if b.host == host]

    def by_user(self, user: str) -> List[BufferDescriptor]:
        return [b for b in self._buffers.values() if b.user == user]

    def free_tier(self, zombie: bool) -> List[Tuple[str, List[int]]]:
        """One tier of the free index: ``(host, sorted free ids)`` pairs.

        Hosts come sorted and only hosts with a free buffer in the tier
        appear.  The id lists are the index's own: read, never mutate.
        """
        return sorted(self._free[zombie].items())

    def free_zombie_buffers(self) -> List[BufferDescriptor]:
        """Unallocated zombie-served buffers, by id."""
        return self._tier_buffers(True)

    def free_buffers(self, zombie_first: bool = True) -> List[BufferDescriptor]:
        """Unallocated buffers; zombie-served buffers first when asked.

        "Memory from zombie servers have always higher priority than memory
        from active servers."
        """
        free = self._tier_buffers(True) + self._tier_buffers(False)
        if not zombie_first:
            free.sort(key=lambda b: b.buffer_id)
        return free

    def _tier_buffers(self, zombie: bool) -> List[BufferDescriptor]:
        ids = [bid for _, tier_ids in self.free_tier(zombie)
               for bid in tier_ids]
        ids.sort()
        return [self._buffers[bid] for bid in ids]

    def allocated_count_by_host(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for buffer in self._buffers.values():
            counts.setdefault(buffer.host, 0)
            if buffer.allocated:
                counts[buffer.host] += 1
        return counts

    def free_bytes(self) -> int:
        return sum(b.size_bytes for b in self._buffers.values()
                   if not b.allocated)

    def total_bytes(self) -> int:
        return sum(b.size_bytes for b in self._buffers.values())

    def snapshot(self) -> List[BufferDescriptor]:
        """Full-state copy (bootstrap of a fresh secondary)."""
        return list(self._buffers.values())

    def load_snapshot(self, buffers: List[BufferDescriptor]) -> None:
        self._buffers = {b.buffer_id: b for b in buffers}
        self._free = {True: {}, False: {}}
        for descriptor in self._buffers.values():
            if not descriptor.allocated:
                self._index(descriptor)
        self.journal.append(("snapshot", (len(buffers),)))

    # -- free index upkeep ------------------------------------------------
    def _store(self, descriptor: BufferDescriptor) -> None:
        """Insert or replace a record, keeping the free index in step."""
        old = self._buffers.get(descriptor.buffer_id)
        if old is not None and not old.allocated:
            self._unindex(old)
        self._buffers[descriptor.buffer_id] = descriptor
        if not descriptor.allocated:
            self._index(descriptor)

    def _discard(self, buffer_id: int) -> Optional[BufferDescriptor]:
        descriptor = self._buffers.pop(buffer_id, None)
        if descriptor is not None and not descriptor.allocated:
            self._unindex(descriptor)
        return descriptor

    def _index(self, descriptor: BufferDescriptor) -> None:
        tier = self._free[descriptor.kind is BufferKind.ZOMBIE]
        ids = tier.get(descriptor.host)
        if ids is None:
            tier[descriptor.host] = [descriptor.buffer_id]
        else:
            insort(ids, descriptor.buffer_id)

    def _unindex(self, descriptor: BufferDescriptor) -> None:
        tier = self._free[descriptor.kind is BufferKind.ZOMBIE]
        ids = tier[descriptor.host]
        del ids[bisect_left(ids, descriptor.buffer_id)]
        if not ids:
            del tier[descriptor.host]

    def _get(self, buffer_id: int) -> BufferDescriptor:
        descriptor = self._buffers.get(buffer_id)
        if descriptor is None:
            raise BufferError_(f"unknown buffer id {buffer_id}")
        return descriptor
