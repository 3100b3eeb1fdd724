"""ZomBench: host-speed benchmark of the Zombieland reproduction.

    python3 zombench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The benchmark generates the workload's
inputs from ``--seed``, then replays them on freshly built systems, one
after another in this one process and thread (a closed loop: each call is
sent when the previous one returned), until ``--seconds`` of replay time
are measured.  Every iteration's simulated outcome is checked.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one
untraced and one traced iteration, writes the traced spans as Chrome-trace
JSON under ``.zombench/`` and prints the per-layer metrics.  The last line
of standard output is one JSON object; the lines before it, starting with
``#``, say the same for a reader.  See ``zombench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("ramext_local100", "ramext_local20", "fed_tenant_churn",
             "dc_trace_replay")

END_TO_END = {"setup_s": "s", "peak_rss_mb": "MiB", "ops_per_s": "1/s",
              "op_p50_us": "us"}

#: What one operation is, per workload, and the workload-specific names of
#: the generic metrics (the names the ROADMAP's perf items use).
OPERATION = {
    "ramext_local100": ("guest access",
                        {"ops_per_s": "accesses_per_s.local100"}),
    "ramext_local20": ("guest access",
                       {"ops_per_s": "accesses_per_s.local20"}),
    "fed_tenant_churn": ("gateway verb", {"ops_per_s": "verbs_per_s",
                                          "op_p50_us": "verb_p50_us"}),
    "dc_trace_replay": ("trace task", {"ops_per_s": "tasks_per_s"}),
}

_CONTROLLER_HANDLERS = ("gs_alloc_ext", "gs_alloc_swap", "gs_release",
                        "gs_goto_zombie", "gs_wake", "gs_reclaim",
                        "fed_borrow", "fed_return", "fed_import",
                        "fed_recall", "heartbeat")

#: Per-layer metric -> unit.  ``<span>.calls`` and ``<span>.self_s`` come
#: from the traced spans; the rest from the program's counters.
PER_LAYER = {
    "hypervisor.access.calls": "count",
    "hypervisor.access.self_s": "s",
    "hypervisor.fault_rate": "ratio",
    "hypervisor.evictions": "count",
    "hypervisor.remote_fills": "count",
    "memory.replacement.select_victim.calls": "count",
    "memory.replacement.select_victim.self_s": "s",
    "memory.replacement.cycles_per_victim": "cycles",
    "memory.buffers.store.self_s": "s",
    "memory.buffers.load.self_s": "s",
    "memory.buffers.free.self_s": "s",
    "memory.frames.alloc.self_s": "s",
    "memory.frames.alloc_many.calls": "count",
    "memory.frames.alloc_many.self_s": "s",
    "rdma.fabric.bytes_moved": "B",
    "rdma.rpc.call.calls": "count",
    "rdma.rpc.call.self_s": "s",
    "rdma.rpc.serve.self_s": "s",
    "rdma.rpc.attempts_per_call": "ratio",
    "fed.gateway.call.calls": "count",
    "fed.gateway.call.self_s": "s",
    "fed.lending.borrow.calls": "count",
    "fed.lending.borrow.self_s": "s",
    "fed.directory.refresh.calls": "count",
    "fed.directory.refresh.self_s": "s",
    "fed.borrow_yield": "ratio",
    "fed.cross_rack_ops": "count",
    **{f"core.controller.{h}.self_s": "s" for h in _CONTROLLER_HANDLERS},
    "core.secondary.apply_mirror.calls": "count",
    "core.secondary.apply_mirror.self_s": "s",
    "core.server.go_zombie.self_s": "s",
    "core.server.wake.self_s": "s",
    "sim.engine.run.events": "count",
    "sim.engine.run.self_s": "s",
    "traces.trace_from_csv.self_s": "s",
    "traces.tasks": "count",
    "dc.aggregate_demand.self_s": "s",
    "dc.slot_overlaps": "count",
    "dc.simulate_energy.self_s": "s",
    "dc.fleet.enact.calls": "count",
    "dc.fleet.enact.self_s": "s",
    "dc.fleet.alloc_failures": "count",
    "workloads.input_gen_s": "s",
    "traces.generate_s": "s",
    "ramext.sim_penalty_err_pp": "pp",
    "dc.fig10_err_pp": "pp",
    "fed.sim_us_per_verb": "us",
    "fed.verb_p99_us": "us",
    "fed.verb_samples": "count",
    "fed.borrow_alloc_p50_us": "us",
    "fed.borrow_alloc_samples": "count",
    "failed_frac": "ratio",
    "trace.overhead_pct": "%",
    "trace.spans": "count",
}


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def make_workload(name: str):
    from zombench import workloads
    if name == "ramext_local100":
        return workloads.RamExt(name, 1.0)
    if name == "ramext_local20":
        return workloads.RamExt(name, 0.2)
    if name == "fed_tenant_churn":
        return workloads.Churn()
    return workloads.TraceReplay(str(ROOT / ".zombench" / "work"))


class Run:
    """The iterations of one benchmark run and the checks on them."""

    def __init__(self, workload, inputs):
        self.workload = workload
        self.inputs = inputs
        self.iterations = []
        #: Per iteration: the mean factor by which the clock scaled its host
        #: time to the reference host speed (see ``hostspeed``).
        self.scales = []
        self.problems = []
        self.extras = {}

    def measure(self, **kwargs):
        """Run one iteration; check and keep it."""
        from zombench import hostspeed
        start = hostspeed.clock()
        iteration = self.workload.run_once(self.inputs, **kwargs)
        end = hostspeed.clock()
        self.scales.append(hostspeed.reference_s(start, end) / (end - start))
        self.add(iteration)
        return iteration

    def add(self, iteration) -> None:
        if not self.iterations:
            problems, extras = self.workload.check(self.inputs, iteration)
            self.problems += problems
            self.extras.update(extras)
        elif iteration.digest != self.iterations[0].digest:
            self.problems.append(
                f"iteration {len(self.iterations)}: simulated digest differs "
                "from the first iteration's on the same inputs")
        self.problems += iteration.problems
        # Keep the numbers, not the system: a run holds many iterations.
        self.iterations.append(iteration._replace(state=None))
        gc.collect()

    @property
    def attempted(self) -> int:
        return sum(it.attempted for it in self.iterations)

    @property
    def failed(self) -> int:
        if self.problems:
            return self.attempted
        return sum(it.refused for it in self.iterations)


def end_to_end(run: Run) -> dict:
    """The end-to-end metrics, in host time at the reference speed."""
    return {
        "setup_s": statistics.median(it.setup_s for it in run.iterations),
        "peak_rss_mb": peak_rss_mb(),
        "ops_per_s": statistics.median(it.ops / it.replay_s
                                       for it in run.iterations),
        "op_p50_us": statistics.median(_per_op_us(run)),
    }


def _per_op_us(run: Run) -> list:
    """Host µs per operation of every request of the run."""
    return [seconds / ops * 1e6
            for it in run.iterations for ops, seconds in it.requests]


def per_layer(run: Run, traced, recorder, untraced, gen_s: float) -> dict:
    summary = recorder.summary()
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    traced_scale = run.scales[1]
    for name, row in summary.items():
        if f"{name}.calls" in metrics:
            metrics[f"{name}.calls"] = row["calls"]
        if f"{name}.self_s" in metrics:
            metrics[f"{name}.self_s"] = row["self_s"] * traced_scale
    counts = recorder.counts
    metrics["sim.engine.run.events"] = counts.get("sim.engine.run.events", 0)
    requested = counts.get("fed.borrow.requested", 0)
    if requested:
        metrics["fed.borrow_yield"] = (counts["fed.borrow.granted"]
                                       / requested)
    metrics.update(run.workload.layer_counts(traced, untraced))
    metrics.update(run.extras)
    metrics["workloads.input_gen_s"] = gen_s
    metrics["traces.generate_s"] = getattr(run.workload, "generate_s", 0.0)
    metrics["failed_frac"] = run.failed / max(1, run.attempted)
    metrics["trace.overhead_pct"] = (
        traced.replay_s / untraced.replay_s - 1.0) * 100.0
    metrics["trace.spans"] = len(recorder)
    return metrics


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_run(workload, inputs, seconds: int) -> Run:
    run = Run(workload, inputs)
    measured = 0.0
    while measured < seconds:
        measured += run.measure().replay_s
    return run


def traced_run(workload, inputs, gen_s: float, trace_path: Path):
    from repro.obs.export import validate_chrome_trace
    from zombench.spans import SpanRecorder, instrumented

    run = Run(workload, inputs)
    untraced = run.measure()
    if hasattr(workload, "sim_us_per_verb"):
        sim_us, digest = workload.sim_us_per_verb(inputs)
        run.extras["fed.sim_us_per_verb"] = sim_us
        if digest != untraced.digest:
            run.problems.append("telemetry changed the simulated digest")
    recorder = SpanRecorder()
    with instrumented(recorder):
        traced = run.measure(recorder=recorder)
    if traced.digest != untraced.digest:
        run.problems.append("tracing changed the simulated digest")
    text = recorder.chrome_trace()
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace_path.write_text(text)
    run.problems += [f"chrome trace: {p}"
                     for p in validate_chrome_trace(text)]
    return run, per_layer(run, traced, recorder, untraced, gen_s)


def report(args, run: Run, metrics: dict, units: dict) -> None:
    operation, aliases = OPERATION[args.workload]
    print(f"# zombench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(run.iterations)} iterations, one operation = {operation}")
    for name, value in metrics.items():
        note = f"  ({aliases[name]})" if name in aliases else ""
        print(f"#   {name:42s} {value:16.6g} {units[name]}{note}")
    if args.trace == 0:
        samples = sum(len(it.requests) for it in run.iterations)
        from zombench.workloads import percentile
        p99 = percentile(sorted(_per_op_us(run)), 0.99)
        print(f"#   op_p50_us over {samples} requests (op_p99_us {p99:.6g}); "
              f"setup_s is the median of {len(run.iterations)} set-ups")
        raw = statistics.median(it.ops / it.replay_s * k for it, k in
                                zip(run.iterations, run.scales))
        print(f"#   host times scaled to the reference speed by a median "
              f"{statistics.median(run.scales):.3f}; unscaled ops_per_s "
              f"{raw:.6g}")
        for name, value in sorted(run.extras.items()):
            print(f"#   {name:42s} {value:16.6g} {PER_LAYER[name]}")
    print(f"#   failed_frac {run.failed}/{run.attempted}")
    digest = hashlib.sha256(repr(run.iterations[0].digest).encode())
    print(f"# digest {digest.hexdigest()} (simulated outcome of the inputs)")
    for problem in run.problems:
        print(f"# PROBLEM: {problem}")
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))


def main() -> int:
    args = parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"zombench: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    workload = make_workload(args.workload)
    start = time.process_time()
    inputs = workload.generate(args.seed)
    gen_s = time.process_time() - start
    try:
        if args.trace:
            trace_path = (ROOT / ".zombench"
                          / f"trace-{args.workload}-seed{args.seed}.json")
            run, metrics = traced_run(workload, inputs, gen_s, trace_path)
            report(args, run, metrics, PER_LAYER)
        else:
            run = timed_run(workload, inputs, args.seconds)
            report(args, run, end_to_end(run), END_TO_END)
    finally:
        cleanup = getattr(workload, "cleanup", None)
        if cleanup is not None:
            cleanup(inputs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
