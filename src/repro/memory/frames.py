"""Host machine-frame allocation.

The hypervisor provisions each VM a bounded number of *local* machine frames
(``LocalMemSize`` in the paper); the allocator hands them out on demand and
the fault handler frees them when pages are demoted to remote memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Set

from repro.errors import ConfigurationError, OutOfFramesError, PageTableError


@dataclass(frozen=True)
class Frame:
    """A machine (host-physical) frame number."""

    mfn: int

    def __post_init__(self) -> None:
        if self.mfn < 0:
            raise ConfigurationError(f"negative machine frame number {self.mfn}")


class FrameAllocator:
    """A fixed pool of machine frames with O(1) alloc/free.

    Frames are handed out lowest-number-first from the free list, which keeps
    allocation deterministic for tests and experiments.
    """

    def __init__(self, total_frames: int):
        if total_frames < 0:
            raise ConfigurationError(f"negative frame count {total_frames}")
        self.total_frames = total_frames
        self._free: List[int] = list(range(total_frames - 1, -1, -1))
        self._allocated: Set[int] = set()

    @property
    def free_frames(self) -> int:
        return len(self._free)

    @property
    def used_frames(self) -> int:
        return len(self._allocated)

    def alloc(self) -> Frame:
        """Allocate one frame; raises :class:`OutOfFramesError` when empty."""
        if not self._free:
            raise OutOfFramesError(
                f"no free machine frames ({self.total_frames} total)"
            )
        mfn = self._free.pop()
        self._allocated.add(mfn)
        return Frame(mfn)

    def try_alloc(self) -> Optional[Frame]:
        """Allocate one frame or return None when the pool is exhausted."""
        if not self._free:
            return None
        return self.alloc()

    def alloc_many(self, count: int) -> List[int]:
        """Allocate ``count`` frames at once (buffer carving fast path).

        Returns the machine frame numbers as plain ints: a lent buffer
        only needs its mfns back at reclaim time, so no :class:`Frame`
        objects are built per page.
        """
        if count < 0:
            raise ConfigurationError(f"negative count {count}")
        if count > len(self._free):
            raise OutOfFramesError(
                f"{count} frames requested, {len(self._free)} free"
            )
        if count == 0:
            return []
        taken = self._free[-count:]
        del self._free[-count:]
        self._allocated.update(taken)
        return taken

    def free_many(self, mfns: List[int]) -> None:
        """Return many frames (by mfn) at once; all-or-nothing.

        A stray (unallocated) or repeated mfn raises before anything is
        freed.
        """
        unique = set(mfns)
        if not self._allocated.issuperset(unique):
            stray = min(unique - self._allocated)
            raise PageTableError(
                f"freeing frame {stray} that is not allocated"
            )
        if len(unique) != len(mfns):
            raise PageTableError("freeing the same frame twice in one call")
        self._allocated.difference_update(unique)
        self._free.extend(mfns)

    def free(self, frame: Frame) -> None:
        """Return a frame to the pool; double-free raises."""
        if frame.mfn not in self._allocated:
            raise PageTableError(
                f"freeing frame {frame.mfn} that is not allocated"
            )
        self._allocated.remove(frame.mfn)
        self._free.append(frame.mfn)

    def is_allocated(self, frame: Frame) -> bool:
        return frame.mfn in self._allocated
