"""The controller's buffer database."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.controller import GlobalMemoryController
from repro.core.database import BufferDatabase
from repro.core.protocol import BufferDescriptor, BufferKind
from repro.errors import BufferError_, ControllerError


def _desc(buffer_id, host="h1", kind=BufferKind.ZOMBIE, user=None):
    return BufferDescriptor(buffer_id=buffer_id, host=host, offset=0,
                            size_bytes=1024, kind=kind, rkey=buffer_id,
                            user=user)


class TestMutations:
    def test_add_and_get(self):
        db = BufferDatabase()
        db.add(_desc(1))
        assert db.get(1).host == "h1"
        assert 1 in db and len(db) == 1

    def test_duplicate_add_rejected(self):
        db = BufferDatabase()
        db.add(_desc(1))
        with pytest.raises(BufferError_):
            db.add(_desc(1))

    def test_assign_unassign(self):
        db = BufferDatabase()
        db.add(_desc(1))
        assert db.assign(1, "user-a").user == "user-a"
        assert db.get(1).allocated
        db.unassign(1)
        assert not db.get(1).allocated

    def test_double_assign_rejected(self):
        db = BufferDatabase()
        db.add(_desc(1))
        db.assign(1, "a")
        with pytest.raises(BufferError_):
            db.assign(1, "b")

    def test_unassign_free_rejected(self):
        db = BufferDatabase()
        db.add(_desc(1))
        with pytest.raises(BufferError_):
            db.unassign(1)

    def test_remove(self):
        db = BufferDatabase()
        db.add(_desc(1))
        assert db.remove(1).buffer_id == 1
        assert 1 not in db
        with pytest.raises(BufferError_):
            db.remove(1)

    def test_set_kind(self):
        db = BufferDatabase()
        db.add(_desc(1, kind=BufferKind.ACTIVE))
        db.set_kind(1, BufferKind.ZOMBIE)
        assert db.get(1).kind is BufferKind.ZOMBIE


class TestQueries:
    def _populated(self):
        db = BufferDatabase()
        db.add(_desc(1, host="h1", kind=BufferKind.ACTIVE))
        db.add(_desc(2, host="h2", kind=BufferKind.ZOMBIE))
        db.add(_desc(3, host="h2", kind=BufferKind.ZOMBIE))
        db.add(_desc(4, host="h3", kind=BufferKind.ACTIVE))
        db.assign(3, "user")
        return db

    def test_free_buffers_zombie_first(self):
        db = self._populated()
        free = db.free_buffers(zombie_first=True)
        assert [b.buffer_id for b in free] == [2, 1, 4]

    def test_free_buffers_plain_order(self):
        db = self._populated()
        assert [b.buffer_id for b in db.free_buffers(zombie_first=False)] \
            == [1, 2, 4]

    def test_by_host_and_user(self):
        db = self._populated()
        assert {b.buffer_id for b in db.by_host("h2")} == {2, 3}
        assert [b.buffer_id for b in db.by_user("user")] == [3]

    def test_allocated_count_by_host(self):
        db = self._populated()
        counts = db.allocated_count_by_host()
        assert counts == {"h1": 0, "h2": 1, "h3": 0}

    def test_byte_accounting(self):
        db = self._populated()
        assert db.total_bytes() == 4 * 1024
        assert db.free_bytes() == 3 * 1024


class TestJournalAndMirroring:
    def test_journal_records_every_mutation(self):
        db = BufferDatabase()
        db.add(_desc(1))
        db.assign(1, "u")
        db.unassign(1)
        db.remove(1)
        ops = [op for op, _ in db.journal]
        assert ops == ["add", "assign", "unassign", "remove"]

    def test_replaying_journal_reproduces_state(self):
        primary = BufferDatabase()
        primary.add(_desc(1))
        primary.add(_desc(2, host="h2"))
        primary.assign(1, "user-a")
        primary.set_kind(2, BufferKind.ZOMBIE)
        primary.remove(2)

        replica = BufferDatabase()
        for op, args in primary.journal:
            replica.apply(op, args)
        assert len(replica) == len(primary)
        assert replica.get(1).user == primary.get(1).user

    def test_unknown_mirror_op_rejected(self):
        with pytest.raises(ControllerError):
            BufferDatabase().apply("frobnicate", ())

    def test_snapshot_round_trip(self):
        db = self._make_db()
        replica = BufferDatabase()
        replica.load_snapshot(db.snapshot())
        assert len(replica) == len(db)
        assert replica.get(1).user == "u"

    @staticmethod
    def _make_db():
        db = BufferDatabase()
        db.add(_desc(1))
        db.assign(1, "u")
        return db


# -- free-buffer index ---------------------------------------------------------
_HOSTS = ("h1", "h2", "h3", "h4")
_KINDS = (BufferKind.ZOMBIE, BufferKind.ACTIVE, BufferKind.LOST)


def _pick_free_by_scan(db, user, nb, stripe):
    """The allocation engine's selection before the free index existed:
    scan every record, sort, bucket per tier and host.  Kept verbatim as
    the oracle ``GlobalMemoryController._pick_free`` must agree with."""
    free = [b for b in db.all_buffers() if not b.allocated]
    free.sort(key=lambda b: (b.kind is not BufferKind.ZOMBIE, b.buffer_id))
    free = [b for b in free if b.host != user]
    tiers = {}
    for descriptor in free:
        is_zombie = descriptor.kind is BufferKind.ZOMBIE
        tiers.setdefault(is_zombie, {}).setdefault(
            descriptor.host, []
        ).append(descriptor)
    chosen = []
    for is_zombie in (True, False):
        buckets = [tiers[is_zombie][host]
                   for host in sorted(tiers.get(is_zombie, {}))]
        if not stripe:
            for bucket in buckets:
                while bucket and len(chosen) < nb:
                    chosen.append(bucket.pop(0))
        while len(chosen) < nb and buckets:
            for bucket in list(buckets):
                if not bucket:
                    buckets.remove(bucket)
                    continue
                chosen.append(bucket.pop(0))
                if len(chosen) == nb:
                    break
            buckets = [b for b in buckets if b]
        if len(chosen) == nb:
            break
    return chosen


def _index_of(db):
    return {(zombie, host): list(ids)
            for zombie in (True, False)
            for host, ids in db.free_tier(zombie)}


def _recomputed_index(db):
    index = {}
    for b in db.all_buffers():
        if not b.allocated:
            index.setdefault((b.kind is BufferKind.ZOMBIE, b.host),
                             []).append(b.buffer_id)
    return {key: sorted(ids) for key, ids in index.items()}


def _pick_free(db, user, nb, stripe):
    """The controller's selection; it reads only ``db`` and ``stripe``."""
    return GlobalMemoryController._pick_free(
        SimpleNamespace(db=db, stripe=stripe), user, nb)


def _check_index(db):
    assert _index_of(db) == _recomputed_index(db)
    free = [b for b in db.all_buffers() if not b.allocated]
    assert db.free_buffers(zombie_first=True) == sorted(
        free, key=lambda b: (b.kind is not BufferKind.ZOMBIE, b.buffer_id))
    assert db.free_buffers(zombie_first=False) == sorted(
        free, key=lambda b: b.buffer_id)
    assert db.free_zombie_buffers() == [
        b for b in db.free_buffers() if b.kind is BufferKind.ZOMBIE]


def _step(db, op, bid, host, kind, user):
    """Apply one random mutation if it is legal; returns whether it was."""
    if op == "add":
        if bid in db:
            return False
        db.add(_desc(bid, host=host, kind=kind, user=user))
    elif op == "remove":
        if bid not in db:
            return False
        db.remove(bid)
    elif op == "assign":
        if bid not in db or db.get(bid).allocated:
            return False
        db.assign(bid, user or "u1")
    elif op == "unassign":
        if bid not in db or not db.get(bid).allocated:
            return False
        db.unassign(bid)
    elif op == "set_kind":
        if bid not in db:
            return False
        db.set_kind(bid, kind)
    return True


_OPS = st.lists(
    st.tuples(st.sampled_from(("add", "add", "remove", "assign",
                               "unassign", "set_kind", "snapshot")),
              st.integers(1, 24),
              st.sampled_from(_HOSTS),
              st.sampled_from(_KINDS),
              st.sampled_from((None, None, None, "u1", "h2")),
              st.sampled_from(("h1", "h3", "u1")),
              st.integers(0, 12)),
    max_size=80)


class TestFreeIndex:
    def test_index_tracks_mutations(self):
        db = BufferDatabase()
        db.add(_desc(3, host="h2"))
        db.add(_desc(1, host="h2"))
        db.add(_desc(2, host="h1", kind=BufferKind.ACTIVE))
        assert db.free_tier(True) == [("h2", [1, 3])]
        assert db.free_tier(False) == [("h1", [2])]
        db.assign(1, "u")
        db.set_kind(2, BufferKind.ZOMBIE)
        assert db.free_tier(True) == [("h1", [2]), ("h2", [3])]
        assert db.free_tier(False) == []
        db.remove(3)
        db.unassign(1)
        assert db.free_tier(True) == [("h1", [2]), ("h2", [1])]

    def test_pick_stripes_by_rank_and_skips_the_requester(self):
        db = BufferDatabase()
        for bid, host in enumerate(("h1", "h1", "h2", "h2", "h3", "h4"), 1):
            db.add(_desc(bid, host=host))
        db.add(_desc(7, host="h1", kind=BufferKind.ACTIVE))
        ids = [b.buffer_id for b in _pick_free(db, "h4", 6, stripe=True)]
        assert ids == [1, 3, 5, 2, 4, 7]
        ids = [b.buffer_id for b in _pick_free(db, "h4", 6, stripe=False)]
        assert ids == [1, 2, 3, 4, 5, 7]
        for stripe in (True, False):
            for nb in range(9):
                assert _pick_free(db, "h4", nb, stripe) == \
                    _pick_free_by_scan(db, "h4", nb, stripe)

    def test_lost_buffers_share_the_active_tier(self):
        db = BufferDatabase()
        db.add(_desc(1, kind=BufferKind.LOST))
        db.add(_desc(2, kind=BufferKind.ACTIVE))
        assert db.free_tier(False) == [("h1", [1, 2])]

    @settings(max_examples=150, deadline=None)
    @given(ops=_OPS)
    def test_index_equals_recomputation_and_pick_matches_scan(self, ops):
        primary, standby = BufferDatabase(), BufferDatabase()
        for op, bid, host, kind, user, picker, nb in ops:
            if op == "snapshot":
                # A fresh standby bootstrapped from a snapshot.
                standby = BufferDatabase()
                standby.load_snapshot(primary.snapshot())
            else:
                mark = len(primary.journal)
                if not _step(primary, op, bid, host, kind, user):
                    continue
                for entry in primary.journal[mark:]:
                    standby.apply(*entry)
            for db in (primary, standby):
                _check_index(db)
            assert _index_of(standby) == _index_of(primary)
            for stripe in (True, False):
                picked = _pick_free(primary, picker, nb, stripe)
                assert picked == _pick_free_by_scan(primary, picker, nb,
                                                    stripe)
                assert _pick_free(standby, picker, nb, stripe) == picked

    def test_mirrored_remove_of_unknown_id_is_a_no_op(self):
        db = BufferDatabase()
        db.add(_desc(1))
        db.apply("remove", (99,))
        db.apply("add", (_desc(1, kind=BufferKind.ACTIVE),))
        assert _index_of(db) == {(False, "h1"): [1]}
