"""Layered benchmark of the why-not explanation system.

Usage (from the repository root)::

    python3 perfbench/run.py --workload explain-miss --seed 1 --seconds 25 --trace 0

Workloads: ``explain-miss``, ``serve-mix``, ``serve-sharded``,
``query-mutate`` (see ``perfbench/README.md``).  The run sets the workload
up three times (``setup_s`` is the median's CPU time) and drives each set-up
as a closed loop with one client for a third of ``--seconds``, checking
every answer.  Timings in the result line are CPU time, which time stolen by
other tenants of a shared host does not inflate, scaled by a reference loop
timed alongside to the CPU time they would take at a fixed speed of the host.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the first
half of the time untraced and the second half with the span wrappers of
``perfbench/spans.py`` installed (in process, or in a server started through
``perfbench/launch.py``), and reports the per-layer metrics.

Human-readable lines go to stdout first; the last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The full record (every
named metric with its sample count, the environment, the set-up phases) is
written to ``.perfbench/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import shutil
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
#: Set-ups per run; ``setup_s`` comes from their median, and each is
#: measured for an equal share of ``--seconds``.
SETUP_REPS = 3
#: Failures whose details are printed (the count is always complete).
SHOWN_FAILURES = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment() -> dict:
    """Effective engine defaults plus the machine and revision identity."""
    from repro.engine.backends import default_backend_name
    from repro.engine.columnar import resolve_engine
    from repro.engine.optimizer import resolve_optimize

    return {
        "engine": resolve_engine(None),
        "backend": default_backend_name(),
        "optimize": resolve_optimize(None),
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
    }


def git_sha() -> str:
    """HEAD's commit id read from ``.git`` in the checkout, if there is one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def reference_loop() -> None:
    """A fixed piece of interpreter work (small allocations, a dict, a sort)
    that uses nothing of the program.  Its CPU time measures how fast the
    host runs Python at the moment; see ``report.REFERENCE_LOOP_MS``.

    Collections are held off while it runs: its objects are all freed when
    it returns, so it leaves the collector's counts as it found them and
    does not move a collection into or out of the operations around it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        groups: dict = {}
        for key, name in [(i * 7919 % 1009, str(i)) for i in range(1500)]:
            groups.setdefault(key, []).append(name)
        sorted(groups.items())
    finally:
        if enabled:
            gc.enable()


def measure(workload, stream, seconds: float, failures: list,
            max_ops=None) -> "tuple[list, float]":
    """Closed loop: run ops from *stream* one at a time for *seconds*, then
    to the end of the current round (or until *max_ops* ops have run).

    Each sample's CPU time is the benchmark process's CPU time inside
    ``op.run()`` plus the server processes' CPU time from the op's start to
    the next op's start (so work a server does after replying is charged to
    the request that caused it).  Before each op, :func:`reference_loop`
    is timed into the sample.
    """
    from report import Sample

    server_cpu = workload.server_cpu
    samples = []
    started = time.perf_counter()
    deadline = started + seconds
    server_mark = server_cpu()
    while len(samples) != max_ops:
        op, end_of_round = next(stream)
        c0 = time.process_time()
        reference_loop()
        loop = time.process_time() - c0
        mark = server_cpu()
        if samples:
            samples[-1].cpu += mark - server_mark
        server_mark = mark
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            output = op.run()
            error = None
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
            output, error = None, exc
        elapsed = time.perf_counter() - t0
        cpu = time.process_time() - c0
        if error is None:
            try:
                ok = bool(op.check(output))
            except Exception as exc:  # noqa: BLE001 - malformed answer
                ok, error = False, exc
        else:
            ok = False
        if not ok and len(failures) < SHOWN_FAILURES:
            failures.append(f"{op.kind} {op.key}: " + (repr(error) if error else "wrong answer"))
        samples.append(Sample(op.kind, op.key, t0, elapsed, cpu, loop, ok,
                              op.request_bytes, end_of_round))
        if end_of_round and time.perf_counter() >= deadline:
            break
    if samples:
        samples[-1].cpu += server_cpu() - server_mark
    return samples, time.perf_counter() - started


def run(args) -> dict:
    import report
    from spans import Recorder, load
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
    os.makedirs(OUT_DIR, exist_ok=True)
    workload = WORKLOADS[args.workload](ROOT, args.seed, OUT_DIR)
    rng = random.Random(args.seed)
    setups, setup_cpu_s, setup_wall_s = [], [], []
    failures: list = []
    samples: list = []
    wall = 0.0
    peak_rss = 0.0
    seconds = args.seconds / 2 if args.trace else args.seconds
    try:
        # Each set-up is measured for an equal share of the time, so that the
        # state one set-up happens to leave (heap layout, when collections
        # fall) is averaged over several instead of deciding the whole run.
        for rep in range(SETUP_REPS):
            if rep:
                workload.teardown()
            t0 = time.perf_counter()
            c0 = time.process_time()
            setups.append(workload.setup())
            setup_cpu_s.append(time.process_time() - c0 + workload.server_cpu())
            setup_wall_s.append(time.perf_counter() - t0)
            part, part_wall = measure(workload, workload.stream(rng), seconds / SETUP_REPS,
                                      failures)
            samples += part
            wall += part_wall
            peak_rss = max(peak_rss, workload.peak_rss_mb())
        span_files = []
        traced: list = []
        if args.trace:
            spans_dir = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}")
            shutil.rmtree(spans_dir, ignore_errors=True)
            os.makedirs(spans_dir)
            phase_start = time.perf_counter()
            if not workload.in_process:
                workload.teardown()
                workload.setup(traced_server=spans_dir)
                phase_start = time.perf_counter()
                traced, _ = measure(workload, workload.stream(random.Random(args.seed)),
                                    seconds, failures)
                workload.teardown()
            else:
                recorder = Recorder()
                recorder.install()
                try:
                    traced, _ = measure(workload, workload.stream(rng), seconds, failures)
                finally:
                    recorder.uninstall()
                recorder.dump(os.path.join(spans_dir, f"spans-{os.getpid()}.json"))
            span_files = [load(os.path.join(spans_dir, f)) for f in sorted(os.listdir(spans_dir))]
    finally:
        workload.teardown()
    metrics, named = report.end_to_end(samples, wall, workload.headline, setup_cpu_s,
                                       setup_wall_s, peak_rss)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "setup_phases": setups,
        "named": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in named.items()},
        "attempted": len(samples) + len(traced) + workload.references_checked,
        "failed": sum(not s.ok for s in samples + traced) + workload.references_failed,
        "failures": failures,
    }
    if args.trace:
        layers = report.per_layer(span_files, phase_start, samples, traced, setups,
                                  workload.headline)
        record["metrics"] = {k: (v, report.LAYER_UNITS[k]) for k, v in layers.items()}
    else:
        record["metrics"] = metrics
    return record


def print_record(record: dict) -> None:
    env = record["environment"]
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"seconds {record['seconds']}  trace {record['trace']}")
    for name, m in record["named"].items():
        print(f"  {name:<20} {m['value']:>12.4f} {m['unit']:<6} n={m['n']}")
    if record["trace"]:
        for name, (value, unit) in record["metrics"].items():
            print(f"  {name:<28} {value:>12.4f} {unit}")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    print("  env " + " ".join(f"{k}={v}" for k, v in env.items()))


def exit_on_sigterm(signum, frame) -> None:
    """Exit through the finally blocks, so a started server is stopped and
    waited for; a repeated SIGTERM must not interrupt that clean-up."""
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    sys.exit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    # The numbers must be what a default deployment sees: no REPRO_* knobs
    # (REPRO_BENCH_* included) reach this process or the servers it starts.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"error: no repro package under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [src, HERE]
    signal.signal(signal.SIGTERM, exit_on_sigterm)
    record = run(args)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print_record(record)
    # A percentile that lands on failed operations is infinite; JSON has no
    # infinity, so it is reported as the largest float.
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": min(v, sys.float_info.max), "unit": u}
                    for k, (v, u) in record["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
