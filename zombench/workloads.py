"""The ZomBench workloads: RAM Ext paging, federated verb churn, trace replay.

Each workload turns a seed into inputs (``generate``), then replays them on a
freshly built system once per iteration (``run_once``), timing the set-up and
each request separately in host time.  The program only ever sees the
generated stream, verb script or trace file.  Everything a workload checks
about the simulated outcome is returned as a list of problems; an empty list
means the iteration was correct.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import os
import random
import statistics
from contextlib import nullcontext
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.analysis.experiments import default_workloads, micro_reserved_pages
from repro.analysis.harness import RamExtHarness
from repro.check.invariants import duplicate_leaseholders, mirror_divergence
from repro.core.protocol import Method
from repro.dc import datacenter, energy_sim
from repro.dc.fleet import build_fleet
from repro.energy.profiles import DELL_PROFILE, HP_PROFILE
from repro.errors import AllocationError, ControllerError
from repro.fed import Federation
from repro.obs import Telemetry
from repro.traces import google
from repro.traces.schema import TraceConfig
from repro.units import MiB, PAGE_SIZE
from repro.workloads.microbench import MicroBenchmark

from zombench import hostspeed, reference

#: Host time is the process's CPU time: the workloads are single-threaded
#: and never wait, and it leaves out the time the process is not scheduled.
#: Workloads keep ``(start, end)`` readings and turn them into host seconds
#: at the reference speed (``_host_s``) once the timed work is done.
perf = hostspeed.clock
#: Accesses between two clock readings inside one ramext stream.
SLICE_ACCESSES = 2000


class Iteration(NamedTuple):
    """One replay of a workload's inputs on a freshly built system."""

    setup_s: float
    #: ``(operations, host seconds)`` per request, in issue order.
    requests: List[Tuple[int, float]]
    #: Host seconds of the whole replay (requests plus the benchmark's own
    #: steps between them, such as engine advances).
    replay_s: float
    attempted: int
    refused: int
    #: The simulated outcome; identical for identical inputs.
    digest: tuple
    problems: List[str]
    #: The system the iteration ran on, for counters read afterwards.
    state: object
    #: Workload-specific observations the per-layer metrics read.
    extras: Dict[str, object]

    @property
    def ops(self) -> int:
        return sum(ops for ops, _ in self.requests)


def _root(recorder, name: str):
    return recorder.span(name) if recorder is not None else nullcontext()


# -- ramext: Table 1 RAM Ext paging -------------------------------------------

#: Table 1, 20 % local column: penalty (%) of each macro-benchmark.
PAPER_TABLE1_20 = {"Elastic search": 15.6, "Data caching": 9.6,
                   "Spark SQL": 27.0}


def _host_s(stretches: List[Tuple[float, float]]) -> float:
    return sum(hostspeed.reference_s(start, end) for start, end in stretches)


def _clock_reading_slices(accesses: List[Tuple[int, bool]]):
    """``accesses`` in order, reading the host clock between slices.

    A thrashing stream replays for seconds in one call; the readings let the
    clock time the host speed during it.
    """
    def slices():
        for start in range(0, len(accesses), SLICE_ACCESSES):
            yield accesses[start:start + SLICE_ACCESSES]
            perf()
    return itertools.chain.from_iterable(slices())


class Stream(NamedTuple):
    name: str
    compute_s: float
    vm_pages: int
    accesses: List[Tuple[int, bool]]


class RamExt:
    """The Table 1 RAM Ext experiment at one local-memory fraction.

    Four streams (the micro-benchmark and the three macro models at their
    calibrated scale) each run on a fresh user + zombie rack with the Mixed
    policy.  The control plane is idle once the VM is created.
    """

    def __init__(self, name: str, local_fraction: float):
        self.name = name
        self.local_fraction = local_fraction

    def generate(self, seed: int) -> List[Stream]:
        streams = []
        for index, (name, model) in enumerate(default_workloads()):
            model = dataclasses.replace(model, seed=seed * 16 + index + 1)
            if isinstance(model, MicroBenchmark):
                vm_pages = micro_reserved_pages(model)
            else:
                vm_pages = model.wss_pages
            streams.append(Stream(name, model.compute_s, vm_pages,
                                  list(model.stream())))
        return streams

    def run_once(self, streams: List[Stream], recorder=None) -> Iteration:
        setups, replays = [], []
        results = []
        harnesses = []
        for stream in streams:
            with _root(recorder, f"setup.{self.name}"):
                start = perf()
                harness = RamExtHarness(stream.vm_pages, self.local_fraction)
                setups.append((start, perf()))
            with _root(recorder, f"request.{self.name}"):
                start = perf()
                results.append(harness.run(
                    _clock_reading_slices(stream.accesses), stream.compute_s))
                replays.append((start, perf()))
            harnesses.append(harness)
        setup_s, replay_s = _host_s(setups), _host_s(replays)
        digest = []
        for harness, result in zip(harnesses, results):
            stats = harness.stats
            digest.append(reference.StreamDigest(
                result.accesses, result.sim_time_s, stats.page_faults,
                stats.evictions, stats.remote_fills, stats.policy_cycles))
        # The four streams differ several-fold in host time per access, so
        # the iteration as a whole is the request whose latency is reported.
        accesses = sum(d.accesses for d in digest)
        return Iteration(setup_s, [(accesses, replay_s)], replay_s,
                         accesses, 0, tuple(digest), [], harnesses, {})

    def check(self, streams: List[Stream], first: Iteration) -> Tuple[
            List[str], Dict[str, float]]:
        """Compare the program with the reference model; Table 1 shape."""
        problems = []
        penalties = {}
        for stream, harness, got in zip(streams, first.state, first.digest):
            transfer_s = harness.rack.fabric.costs.transfer_time(PAGE_SIZE)
            want = reference.replay(stream.accesses,
                                    harness.vm.local_frames_limit,
                                    stream.compute_s, transfer_s)
            if got != want:
                problems.append(f"{stream.name}: simulated {got} != "
                                f"reference {want}")
            if self.local_fraction == 1.0:
                touched = len({ppn for ppn, _ in stream.accesses})
                if (got.page_faults, got.evictions) != (touched, 0):
                    problems.append(
                        f"{stream.name}: at 100 % local expected {touched} "
                        f"first-touch faults and no eviction, got {got}")
                continue
            baseline = reference.replay(stream.accesses, stream.vm_pages,
                                        stream.compute_s, transfer_s)
            penalties[stream.name] = (got.sim_time_s / baseline.sim_time_s
                                      - 1.0) * 100.0
        extras = {}
        if penalties:
            micro = penalties.pop("micro-bench.")
            if micro <= 100.0:
                problems.append(f"micro-bench. does not thrash at "
                                f"{self.local_fraction:.0%} local "
                                f"({micro:.1f} % penalty)")
            for name, penalty in penalties.items():
                if penalty >= 100.0:
                    problems.append(f"{name}: {penalty:.1f} % penalty at "
                                    f"{self.local_fraction:.0%} local")
            extras["ramext.sim_penalty_err_pp"] = statistics.fmean(
                abs(penalty - PAPER_TABLE1_20[name])
                for name, penalty in penalties.items())
        return problems, extras

    def layer_counts(self, iteration: Iteration,
                     untraced: Iteration) -> Dict[str, float]:
        stats = [h.stats for h in iteration.state]
        policies = [h.policy for h in iteration.state]
        fabrics = [h.rack.fabric.stats for h in iteration.state]
        accesses = sum(s.accesses for s in stats)
        victims = sum(p.victims_selected for p in policies)
        return {
            "hypervisor.fault_rate": (sum(s.page_faults for s in stats)
                                      / accesses),
            "hypervisor.evictions": sum(s.evictions for s in stats),
            "hypervisor.remote_fills": sum(s.remote_fills for s in stats),
            "memory.replacement.cycles_per_victim": (
                sum(p.cycles_total for p in policies) / victims
                if victims else 0.0),
            "rdma.fabric.bytes_moved": sum(f.bytes_read + f.bytes_written
                                           for f in fabrics),
        }


# -- fed_tenant_churn: control-plane verbs through the federation -------------

#: Tenant host -> relative verb weight.  ``rack1/h3`` and ``rack2/h3`` hash
#: to rack1, the other two to rack2, so each rack is home to two tenants
#: (one of them on the other rack, paying the inter-rack surcharge).  The
#: rack1-homed tenants are busier, which drains rack1's pool and makes it
#: borrow from rack2.
TENANTS = {"rack1/h3": 3, "rack2/h3": 3, "rack1/h1": 1, "rack2/h1": 1}
#: Hosts parked in Sz at set-up.
ZOMBIES = ("rack1/h2", "rack1/h4", "rack2/h2", "rack2/h4")
#: The periodic Sz cycles wake one of the busy rack's zombies with a reclaim
#: and park it again; the lending rack's zombies stay parked, so the
#: federation's zombie pool never runs dry and no verb is refused.
SZ_CYCLED = ZOMBIES[:2]
CHURN_MEMORY = 256 * MiB
CHURN_BUFF = 16 * MiB
CHURN_VERBS = 4800
#: Buffers one tenant may hold; a further allocation becomes a release.
TENANT_CAP = {"rack1/h3": 40, "rack2/h3": 40, "rack1/h1": 4,
              "rack2/h1": 4}
VERB_BATCH = 40          # verbs between engine advances
ADVANCE_S = 0.5          # simulated seconds per advance
SZ_PERIOD = 300          # verbs per wake/park cycle
RECLAIM_BUFFERS = 2


class Churn:
    """Four tenants issuing small allocation verbs through the gateway."""

    name = "fed_tenant_churn"

    def generate(self, seed: int) -> List[tuple]:
        rng = random.Random(seed)
        tenants = sorted(TENANTS)
        weights = [TENANTS[t] for t in tenants]
        script = []
        for index in range(1, CHURN_VERBS + 1):
            tenant = rng.choices(tenants, weights)[0]
            draw = rng.random()
            if draw < 0.5:
                script.append(("alloc_ext", tenant, rng.randint(1, 2)))
            elif draw < 0.62:
                script.append(("alloc_swap", tenant, rng.randint(1, 2)))
            else:
                script.append(("release", tenant, rng.randint(1, 3)))
            if index % VERB_BATCH == 0:
                script.append(("advance", ADVANCE_S))
            if index % SZ_PERIOD == SZ_PERIOD // 3:
                host = rng.choice(SZ_CYCLED)
                script.append(("wake", host, RECLAIM_BUFFERS))
            elif index % SZ_PERIOD == (2 * SZ_PERIOD) // 3:
                script.append(("park", host))
        return script

    def build(self, telemetry: Optional[Telemetry] = None):
        fed = Federation(n_racks=2, hosts_per_rack=4,
                         memory_bytes=CHURN_MEMORY, buff_size=CHURN_BUFF,
                         telemetry=telemetry)
        for host in ZOMBIES:
            fed.make_zombie(host)
        for rack in fed.racks.values():
            rack.start_host_monitoring()
        return fed

    def run_once(self, script: List[tuple], recorder=None,
                 telemetry: Optional[Telemetry] = None) -> Iteration:
        with _root(recorder, f"setup.{self.name}"):
            start = perf()
            fed = self.build(telemetry)
            setup = (start, perf())
        initial_pool = _pool(fed)
        client = _ChurnClient(fed)
        verbs = []
        borrows = []
        start = perf()
        for step in script:
            kind = step[0]
            if kind == "advance":
                with _root(recorder, f"request.{self.name}.advance"):
                    fed.engine.advance(step[1])
                continue
            if kind in ("wake", "park"):
                with _root(recorder, f"request.{self.name}.sz"):
                    client.sz(kind, *step[1:])
                continue
            triggers = fed.gateway.lending_triggers
            with _root(recorder, f"request.{self.name}"):
                began = perf()
                client.verb(*step)
                verbs.append((began, perf()))
            if fed.gateway.lending_triggers > triggers:
                borrows.append(len(verbs) - 1)
        replay_s = _host_s([(start, perf())])
        setup_s = _host_s([setup])
        requests = [(1, _host_s([verb])) for verb in verbs]
        borrow_us = [requests[index][1] * 1e6 for index in borrows]
        problems = client.drain_and_check(initial_pool)
        stats = fed.stats()
        digest = (round(fed.engine.now, 9), client.outcomes_hash,
                  client.refused, client.revoked, tuple(sorted(stats.items())),
                  tuple(sorted(_pool(fed).items())))
        extras = {"borrow_us": borrow_us}
        return Iteration(setup_s, requests, replay_s,
                         client.attempted, client.refused, digest, problems,
                         fed, extras)

    def check(self, script: List[tuple], first: Iteration) -> Tuple[
            List[str], Dict[str, float]]:
        """Every iteration checks itself when it drains."""
        return [], {}

    def sim_us_per_verb(self, script: List[tuple]) -> Tuple[float, tuple]:
        """Simulated RPC time per verb, from the program's own registry.

        Replays the script once more with telemetry on (untimed); also
        returns that replay's digest, which must match the untraced one.
        """
        telemetry = Telemetry(enabled=True)
        iteration = self.run_once(script, telemetry=telemetry)
        snapshot = telemetry.registry.snapshot()
        rpc_s = sum(value for key, value in snapshot.items()
                    if key.split("{", 1)[0] == "rpc_call_seconds_sum")
        return rpc_s / len(iteration.requests) * 1e6, iteration.digest

    def layer_counts(self, iteration: Iteration,
                     untraced: Iteration) -> Dict[str, float]:
        fed = iteration.state
        policies = [fed.monitor_policy]
        for rack in fed.racks.values():
            policies += [rack.retry_policy, rack.monitor_policy]
        calls = sum(p.stats.calls for p in policies)
        attempts = sum(p.stats.attempts for p in policies)
        latencies = sorted(t for _, t in untraced.requests)
        borrow_us = untraced.extras["borrow_us"]
        return {
            "rdma.rpc.attempts_per_call": attempts / calls if calls else 0.0,
            "fed.cross_rack_ops": fed.fabric.cross_rack_ops,
            "fed.verb_p99_us": percentile(latencies, 0.99) * 1e6,
            "fed.verb_samples": len(latencies),
            "fed.borrow_alloc_p50_us": (statistics.median(borrow_us)
                                        if borrow_us else 0.0),
            "fed.borrow_alloc_samples": len(borrow_us),
        }


def _pool(fed) -> Dict[str, tuple]:
    """Per rack: the free bytes each zombie host serves.

    Active hosts lend spare memory on demand while the churn runs, and
    that memory stays in the pool; only the zombie share is fixed.
    """
    out = {}
    for name, rack in sorted(fed.racks.items()):
        per_host: Dict[str, int] = {}
        for descriptor in rack.controller.db.free_buffers():
            if descriptor.host in ZOMBIES:
                per_host[descriptor.host] = (per_host.get(descriptor.host, 0)
                                             + descriptor.size_bytes)
        out[name] = tuple(sorted(per_host.items()))
    return out


class _ChurnClient:
    """The closed-loop tenant client: one verb at a time, tracks holdings.

    The client listens on each tenant's ``US_reclaim`` channel, so buffers a
    reclaim or a recall took away are dropped from its holdings and never
    released twice.
    """

    def __init__(self, fed):
        self.fed = fed
        self.held: Dict[str, List[int]] = {t: [] for t in TENANTS}
        self.attempted = 0
        self.refused = 0
        #: Buffers taken back from the tenants by ``US_reclaim``.
        self.revoked = 0
        self._outcomes = hashlib.sha256()
        #: Buffer ids come from a process-wide counter; the digest uses
        #: their order of first appearance so that it repeats.
        self._labels: Dict[int, int] = {}
        for tenant in TENANTS:
            rack = fed.racks[fed.rack_of_server(tenant)]
            rpc = rack.servers[tenant].manager.rpc
            verb = Method.US_RECLAIM.value
            rpc.handlers[verb] = self._listener(tenant, rpc.handlers[verb])

    def _listener(self, tenant: str, handler):
        def us_reclaim(buffer_ids, *args, **kwargs):
            revoked = set(buffer_ids)
            self.revoked += len(revoked)
            held = self.held[tenant]
            held[:] = [b for b in held if b not in revoked]
            return handler(buffer_ids, *args, **kwargs)
        return us_reclaim

    def verb(self, kind: str, tenant: str, count: int) -> None:
        held = self.held[tenant]
        if kind != "release" and len(held) + count > TENANT_CAP[tenant]:
            kind = "release"
        elif kind == "release" and not held:
            kind = "alloc_ext"
        gateway = self.fed.gateway
        self.attempted += 1
        try:
            if kind == "release":
                ids = held[:count]
                gateway.release(tenant, ids)
                del held[:len(ids)]
                granted = ()
            else:
                alloc = getattr(gateway, kind)
                granted = tuple(d.buffer_id for d in
                                alloc(tenant, count * CHURN_BUFF))
                held.extend(granted)
        except (AllocationError, ControllerError):
            self.refused += 1
            granted = None
        if granted:
            granted = tuple(self._labels.setdefault(b, len(self._labels))
                            for b in granted)
        self._outcomes.update(repr((kind, tenant, granted)).encode())

    @property
    def outcomes_hash(self) -> str:
        """A digest of every verb's kind, tenant and granted buffers."""
        return self._outcomes.hexdigest()

    def sz(self, kind: str, host: str, *args) -> None:
        self.attempted += 1
        if kind == "wake":
            self.fed.wake(host, reclaim_bytes=args[0] * CHURN_BUFF)
        else:
            self.fed.make_zombie(host)

    def drain_and_check(self, initial_pool) -> List[str]:
        """Release everything, return loans, then check the invariants."""
        fed = self.fed
        problems = []
        holders = [(b, tenant) for tenant, ids in self.held.items()
                   for b in ids]
        for rack in fed.racks.values():
            for descriptor in rack.controller.db.all_buffers():
                if descriptor.user in TENANTS:
                    holders.append((descriptor.buffer_id, descriptor.user))
        clashes = duplicate_leaseholders(holders)
        if clashes:
            problems.append(f"buffers leased to two users: {clashes}")
        for tenant, ids in sorted(self.held.items()):
            home = fed.racks[fed.gateway.home_of(tenant)]
            owned = sorted(d.buffer_id
                           for d in home.controller.db.by_user(tenant))
            if owned != sorted(ids):
                problems.append(f"{tenant}: client holds {sorted(ids)}, "
                                f"home controller says {owned}")
            if ids:
                fed.gateway.release(tenant, sorted(ids))
            self.held[tenant] = []
        for borrower, donor in sorted(fed.lending.agents):
            fed.lending.return_loans(borrower, donor)
        fed.engine.advance(5.0)
        for name, rack in sorted(fed.racks.items()):
            if mirror_divergence(rack.controller.db.all_buffers(),
                                 rack.secondary.db.all_buffers()):
                problems.append(f"{name}: primary and standby diverge")
        if fed.lending.loans or fed.lending.pending_recalls:
            problems.append(f"open loans after drain: "
                            f"{sorted(fed.lending.loans)}")
        pool = _pool(fed)
        if pool != initial_pool:
            problems.append(f"zombie pool {pool} != initial {initial_pool}")
        for name, rack in sorted(fed.racks.items()):
            db = rack.controller.db
            if db.free_bytes() != db.total_bytes():
                problems.append(f"{name}: buffers still allocated after "
                                "the drain")
        return problems


def percentile(ordered: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


# -- dc_trace_replay: the Fig. 10 pipeline from a trace file ------------------

DC_SERVERS = 1000
DC_DAYS = 7.0
#: Fig. 10, original traces, HP: ZombieStack's energy saving (%).
PAPER_FIG10_ZS_HP = 54.0
POLICIES = ("Neat", "Oasis", "ZombieStack")


class TraceInput(NamedTuple):
    path: str
    tasks: int


class TraceReplay:
    """Read a Google-format trace and run the Fig. 10 energy sweep."""

    name = "dc_trace_replay"

    def __init__(self, workdir: str):
        self.workdir = workdir

    def generate(self, seed: int) -> TraceInput:
        start = perf()
        tasks = google.generate_trace(TraceConfig(
            n_servers=DC_SERVERS, duration_days=DC_DAYS, seed=seed))
        self.generate_s = perf() - start
        os.makedirs(self.workdir, exist_ok=True)
        path = os.path.join(self.workdir,
                            f"trace-{seed}-{os.getpid()}.csv")
        google.trace_to_csv(tasks, path)
        return TraceInput(path, len(tasks))

    def run_once(self, trace: TraceInput, recorder=None) -> Iteration:
        with _root(recorder, f"setup.{self.name}"):
            start = perf()
            fleet = build_fleet(DC_SERVERS)
            setup = (start, perf())
        with _root(recorder, f"request.{self.name}"):
            start = perf()
            tasks = google.trace_from_csv(trace.path)
            perf()      # between phases the clock may time the host speed
            slots = datacenter.aggregate_demand(tasks)
            perf()
            savings = {}
            for profile in (HP_PROFILE, DELL_PROFILE):
                for policy in POLICIES:
                    savings[(profile.name, policy)] = (
                        energy_sim.simulate_energy(
                            tasks, DC_SERVERS, profile, policy,
                            slots=slots).saving_pct)
                    perf()
            federated = energy_sim.simulate_energy(
                tasks, DC_SERVERS, HP_PROFILE, "ZombieStack", slots=slots,
                backend="federation", fleet=fleet).saving_pct
            replay = (start, perf())
        setup_s, replay_s = _host_s([setup]), _host_s([replay])
        problems = []
        if len(tasks) != trace.tasks:
            problems.append(f"CSV round trip read {len(tasks)} tasks, "
                            f"wrote {trace.tasks}")
        for profile in (HP_PROFILE.name, DELL_PROFILE.name):
            neat, oasis, zs = (savings[(profile, p)] for p in POLICIES)
            if not zs > oasis >= neat > 0:
                problems.append(f"{profile}: savings Neat {neat:.2f} / Oasis "
                                f"{oasis:.2f} / ZombieStack {zs:.2f} break "
                                "ZombieStack > Oasis >= Neat > 0")
        digest = (len(tasks), tuple(sorted(savings.items())), federated,
                  tuple(sorted(fleet.stats().items())))
        extras = {"dc.slot_overlaps": sum(slot.task_count for slot in slots)}
        return Iteration(setup_s, [(len(tasks), replay_s)], replay_s,
                         len(tasks), 0, digest, problems, fleet, extras)

    def check(self, trace: TraceInput, first: Iteration) -> Tuple[
            List[str], Dict[str, float]]:
        """Every iteration checks the Fig. 10 ordering; report the error."""
        savings = dict(first.digest[1])
        return [], {"dc.fig10_err_pp": abs(savings[("HP", "ZombieStack")]
                                           - PAPER_FIG10_ZS_HP)}

    def layer_counts(self, iteration: Iteration,
                     untraced: Iteration) -> Dict[str, float]:
        fleet = iteration.state
        return {
            "traces.tasks": iteration.attempted,
            "dc.slot_overlaps": iteration.extras["dc.slot_overlaps"],
            "dc.fleet.alloc_failures": fleet.alloc_failures,
            "fed.cross_rack_ops": fleet.fed.fabric.cross_rack_ops,
        }

    def cleanup(self, trace: TraceInput) -> None:
        if os.path.exists(trace.path):
            os.remove(trace.path)
