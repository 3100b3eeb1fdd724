"""Reference model of RAM Ext paging with the Mixed replacement policy.

The ramext workloads check the program's simulated output against this
model.  It is written from the paper's description of the fault handler
(Section 4.5) and the Mixed policy (Clock on the first ``x`` entries of the
fault-ordered list, FIFO beyond them), in plain loops over dicts, and shares
no code with ``repro.hypervisor`` or ``repro.memory``: only the cost
constants, which are the model's parameters, come from the program.  A
change that only makes the simulator faster leaves every field of the
digest identical; the float sums run in the program's order, so the
simulated time is compared exactly.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, NamedTuple, Tuple

from repro.hypervisor.kvm import CPU_HZ, FAULT_BASE_S, LOCAL_ACCESS_S
from repro.memory.replacement import (BASE_FAULT_CYCLES,
                                      CLEAR_CYCLES_PER_PAGE, EXAMINE_CYCLES,
                                      POP_CYCLES)

_LOCAL = 1
_REMOTE = 2


class StreamDigest(NamedTuple):
    """The simulated outcome of replaying one access stream."""

    accesses: int
    sim_time_s: float
    page_faults: int
    evictions: int
    remote_fills: int
    policy_cycles: int


def replay(stream: Iterable[Tuple[int, bool]], local_frames: int,
           compute_s: float, page_transfer_s: float, x: int = 5,
           clear_interval: int = 256) -> StreamDigest:
    """Replay ``stream`` on a VM with ``local_frames`` of local memory.

    ``page_transfer_s`` is the cost of moving one page over the fabric
    (one remote fill or one eviction write).
    """
    where = {}        # ppn -> _LOCAL / _REMOTE (absent: never touched)
    stamp = {}        # ppn -> epoch of its last access (-1: bit clear)
    fifo = deque()    # resident pages in fault order
    epoch = 0
    since_clear = 0
    used = 0
    accesses = faults = evictions = fills = cycles_total = 0
    memory_s = 0.0
    for ppn, _write in stream:
        accesses += 1
        state = where.get(ppn)
        if state == _LOCAL:
            stamp[ppn] = epoch
            memory_s += LOCAL_ACCESS_S
            continue
        faults += 1
        cost = FAULT_BASE_S
        if state == _REMOTE:
            cost += page_transfer_s
            fills += 1
        if used < local_frames:
            used += 1
        else:
            victim, cycles, epoch, since_clear = _select_victim(
                fifo, where, stamp, epoch, since_clear, used, x,
                clear_interval)
            cycles_total += cycles
            where[victim] = _REMOTE
            stamp[victim] = -1
            evictions += 1
            cost += cycles / CPU_HZ + page_transfer_s
        where[ppn] = _LOCAL
        stamp[ppn] = epoch
        fifo.append(ppn)
        memory_s += cost
    return StreamDigest(accesses, memory_s + compute_s * accesses, faults,
                        evictions, fills, cycles_total)


def _select_victim(fifo, where, stamp, epoch, since_clear, resident, x,
                   clear_interval):
    """One Mixed-policy victim selection; returns the victim and its cost."""
    cycles = BASE_FAULT_CYCLES
    while fifo:
        spent = 0
        since_clear += 1
        if since_clear >= clear_interval:
            # Periodic accessed-bit clearing, charged per resident page.
            since_clear = 0
            epoch += 1
            spent += resident * CLEAR_CYCLES_PER_PAGE
        examined = 0
        victim = None
        while fifo and examined < x:
            ppn = fifo.popleft()
            spent += EXAMINE_CYCLES
            if where.get(ppn) != _LOCAL:
                continue
            examined += 1
            # A bit survives one clearing epoch.
            if stamp[ppn] < epoch - 1:
                victim = ppn
                spent += POP_CYCLES
                break
            stamp[ppn] = -1       # second chance: clear and rotate
            fifo.append(ppn)
        while victim is None and fifo:
            ppn = fifo.popleft()
            spent += POP_CYCLES
            if where.get(ppn) == _LOCAL:
                victim = ppn
        cycles += spent
        if victim is not None:
            return victim, cycles, epoch, since_clear
    raise RuntimeError("no resident page to evict")
