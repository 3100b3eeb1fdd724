"""Frame allocation and page tables."""

import pytest

from repro.errors import (ConfigurationError, OutOfFramesError,
                          PageTableError)
from repro.memory.frames import Frame, FrameAllocator
from repro.memory.page_table import PageLocation, PageTable


class TestFrameAllocator:
    def test_alloc_free_cycle(self):
        alloc = FrameAllocator(4)
        frames = [alloc.alloc() for _ in range(4)]
        assert alloc.free_frames == 0
        assert alloc.used_frames == 4
        for frame in frames:
            alloc.free(frame)
        assert alloc.free_frames == 4

    def test_deterministic_lowest_first(self):
        alloc = FrameAllocator(3)
        assert [alloc.alloc().mfn for _ in range(3)] == [0, 1, 2]

    def test_exhaustion_raises(self):
        alloc = FrameAllocator(1)
        alloc.alloc()
        with pytest.raises(OutOfFramesError):
            alloc.alloc()

    def test_try_alloc_returns_none_when_empty(self):
        alloc = FrameAllocator(1)
        assert alloc.try_alloc() is not None
        assert alloc.try_alloc() is None

    def test_double_free_rejected(self):
        alloc = FrameAllocator(2)
        frame = alloc.alloc()
        alloc.free(frame)
        with pytest.raises(PageTableError):
            alloc.free(frame)

    def test_free_foreign_frame_rejected(self):
        alloc = FrameAllocator(2)
        with pytest.raises(PageTableError):
            alloc.free(Frame(1))

    def test_alloc_many(self):
        alloc = FrameAllocator(10)
        mfns = alloc.alloc_many(7)
        assert mfns == [6, 5, 4, 3, 2, 1, 0]
        assert all(type(mfn) is int for mfn in mfns)
        assert alloc.free_frames == 3
        assert alloc.used_frames == 7
        alloc.free_many(mfns)
        assert alloc.free_frames == 10
        assert alloc.used_frames == 0

    def test_alloc_many_over_capacity(self):
        alloc = FrameAllocator(3)
        with pytest.raises(OutOfFramesError):
            alloc.alloc_many(4)
        assert alloc.free_frames == 3

    def test_alloc_many_zero(self):
        assert FrameAllocator(3).alloc_many(0) == []

    def test_alloc_many_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            FrameAllocator(3).alloc_many(-1)

    def test_free_many_all_or_nothing(self):
        alloc = FrameAllocator(4)
        mfns = alloc.alloc_many(2)
        with pytest.raises(PageTableError):
            alloc.free_many(mfns + [99])
        # nothing was freed by the failing call
        assert alloc.free_frames == 2
        assert all(alloc.is_allocated(Frame(mfn)) for mfn in mfns)

    def test_free_many_duplicate_all_or_nothing(self):
        alloc = FrameAllocator(4)
        mfns = alloc.alloc_many(2)
        with pytest.raises(PageTableError):
            alloc.free_many(mfns + [mfns[0]])
        assert alloc.free_frames == 2
        assert all(alloc.is_allocated(Frame(mfn)) for mfn in mfns)
        alloc.free_many(mfns)
        assert alloc.free_frames == 4

    def test_free_many_already_freed_rejected(self):
        alloc = FrameAllocator(4)
        mfns = alloc.alloc_many(2)
        alloc.free(Frame(mfns[0]))
        with pytest.raises(PageTableError):
            alloc.free_many(mfns)
        assert alloc.free_frames == 3

    def test_carve_free_carve_round_trip(self):
        # Freeing a carved buffer restores the free list exactly, so the
        # next carve and the next single alloc repeat the first ones:
        # lowest-first determinism survives a carve/reclaim cycle.
        alloc = FrameAllocator(16)
        first = alloc.alloc_many(4)
        first_single = alloc.alloc()
        alloc.free(first_single)
        alloc.free_many(first)
        assert alloc.alloc_many(4) == first
        assert alloc.alloc() == first_single
        assert first_single.mfn == 4

    def test_negative_size_rejected(self):
        with pytest.raises(ConfigurationError):
            FrameAllocator(-1)

    def test_is_allocated(self):
        alloc = FrameAllocator(2)
        frame = alloc.alloc()
        assert alloc.is_allocated(frame)
        alloc.free(frame)
        assert not alloc.is_allocated(frame)


class TestPageTable:
    def test_entries_start_unallocated(self):
        table = PageTable(16)
        entry = table.entry(3)
        assert entry.location is PageLocation.UNALLOCATED
        assert not entry.present

    def test_map_local_counts_resident(self):
        table = PageTable(16)
        table.map_local(0, Frame(0))
        table.map_local(1, Frame(1))
        assert table.resident_pages == 2
        assert table.entry(0).present

    def test_double_map_rejected(self):
        table = PageTable(16)
        table.map_local(0, Frame(0))
        with pytest.raises(PageTableError):
            table.map_local(0, Frame(1))

    def test_demote_clears_present_and_returns_frame(self):
        table = PageTable(16)
        table.map_local(5, Frame(9))
        frame = table.demote(5, remote_slot=42)
        assert frame.mfn == 9
        entry = table.entry(5)
        assert entry.location is PageLocation.REMOTE
        assert entry.remote_slot == 42
        assert table.resident_pages == 0
        assert table.remote_pages == 1

    def test_demote_nonpresent_rejected(self):
        table = PageTable(16)
        with pytest.raises(PageTableError):
            table.demote(0, remote_slot=1)

    def test_remote_page_promotes_back(self):
        table = PageTable(16)
        table.map_local(5, Frame(1))
        table.demote(5, remote_slot=7)
        table.map_local(5, Frame(2))
        entry = table.entry(5)
        assert entry.present
        assert entry.remote_slot is None
        assert table.remote_pages == 0

    def test_out_of_range_ppn(self):
        table = PageTable(4)
        with pytest.raises(PageTableError):
            table.entry(4)
        with pytest.raises(PageTableError):
            table.entry(-1)

    def test_discard_returns_local_frame(self):
        table = PageTable(8)
        table.map_local(1, Frame(3))
        assert table.discard(1).mfn == 3
        assert table.resident_pages == 0
        assert table.discard(1) is None  # already gone

    def test_discard_remote_adjusts_count(self):
        table = PageTable(8)
        table.map_local(1, Frame(3))
        table.demote(1, remote_slot=0)
        assert table.discard(1) is None
        assert table.remote_pages == 0


class TestAccessedBits:
    def test_map_sets_accessed(self):
        table = PageTable(8)
        table.map_local(0, Frame(0))
        assert table.is_accessed(0)

    def test_clear_is_epoch_bump(self):
        table = PageTable(8)
        table.map_local(0, Frame(0))
        cleared = table.clear_accessed_bits()
        assert cleared == 1  # resident count, the sweep size
        # bits survive exactly one epoch (gradual hand-sweep semantics)
        assert table.is_accessed(0)
        table.clear_accessed_bits()
        assert not table.is_accessed(0)

    def test_mark_accessed_refreshes(self):
        table = PageTable(8)
        table.map_local(0, Frame(0))
        table.clear_accessed_bits()
        table.clear_accessed_bits()
        table.mark_accessed(0)
        assert table.is_accessed(0)

    def test_mark_accessed_nonpresent_rejected(self):
        table = PageTable(8)
        with pytest.raises(PageTableError):
            table.mark_accessed(0)

    def test_dirty_bit(self):
        table = PageTable(8)
        table.map_local(0, Frame(0))
        table.mark_accessed(0, write=True)
        assert table.entry(0).dirty

    def test_demote_resets_bits(self):
        table = PageTable(8)
        table.map_local(0, Frame(0))
        table.mark_accessed(0, write=True)
        table.demote(0, remote_slot=0)
        assert not table.entry(0).dirty

    def test_resident_iteration(self):
        table = PageTable(8)
        for ppn in range(4):
            table.map_local(ppn, Frame(ppn))
        table.demote(2, remote_slot=0)
        assert sorted(e.ppn for e in table.resident()) == [0, 1, 3]
        assert table.known_pages() == 4


class TestAdoptVmFrames:
    def test_adopt_vm_maps_frame_objects_onto_resident_pages(self):
        from repro.hypervisor.kvm import Hypervisor
        from repro.hypervisor.vm import VmSpec
        from repro.units import PAGE_SIZE

        source = Hypervisor("src", FrameAllocator(64))
        vm = source.create_vm(VmSpec("v", 8 * PAGE_SIZE), 8 * PAGE_SIZE)
        for ppn in range(5):
            source.access(vm, ppn, write=True)
        vm, store, stats, contents = source.release_vm("v")
        assert source.allocator.used_frames == 0

        target = Hypervisor("dst", FrameAllocator(16))
        held = target.allocator.alloc()  # mfn 0 is taken first
        target.adopt_vm(vm, store, stats, contents)
        resident = list(vm.table.resident())
        assert len(resident) == 5 == vm.local_frames_used
        assert all(isinstance(e.frame, Frame) for e in resident)
        assert sorted(e.frame.mfn for e in resident) == [1, 2, 3, 4, 5]
        assert all(target.allocator.is_allocated(e.frame) for e in resident)
        assert target.allocator.used_frames == 6
        target.destroy_vm("v")
        assert target.allocator.used_frames == 1
        assert target.allocator.is_allocated(held)
