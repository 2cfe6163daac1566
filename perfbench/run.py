"""The verifier's benchmark: four workloads through the user's entry points.

    python3 perfbench/run.py --workload corpus|trees|generated|edit-loop
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  With ``--trace 0`` it measures the
end-to-end metrics: the CLI workloads start fresh
``python -m repro.cli verify --format json`` processes one after
another; ``edit-loop`` drives a ``repro serve`` daemon over its Unix
socket from one client in a closed loop; on ``corpus`` and
``edit-loop`` the times are scaled to a nominal host speed
(``calibrate.py``).  With ``--trace 1`` it runs
in-process passes (see ``trace_pass.py``) and reports the per-layer
metrics.  Every verdict is checked against an answer key that does not
come from the verifier (``workloads.py``).  The last line of output is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import calibrate

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
#: scratch space for inputs, caches and spans; each run's inputs and
#: caches go in a directory of their own, removed when the run ends
WORK = os.path.join(ROOT, ".perfbench")
RUN_DIR = WORK

WORKLOADS = ("corpus", "trees", "generated", "edit-loop")
#: setups per run; setup_s is their median
SETUPS = 3
#: a hung CLI process or daemon request counts as failed after this
TIMEOUT_S = 120.0
#: workloads whose times are scaled to the nominal host speed (see
#: ``calibrate.py`` and :func:`scale_to_nominal`)
CALIBRATED = ("corpus", "edit-loop")
#: calibration kernels timed before each set-up and each CLI process;
#: ``edit-loop`` times one before each edit as well
KERNELS = 8

END_TO_END = {
    "setup_s": "s", "verify_wall_s": "s", "verify_cpu_s": "s",
    "obligations_per_s": "1/s", "decided_share": "ratio",
    "peak_rss_mb": "MB", "edit_p50_s": "s", "edit_tail_s": "s",
}
PER_LAYER_UNITS = {
    "cli.import_s": "s", "lang.bytes_per_s": "B/s",
    "tiered.discharged_share": "ratio", "cache.hit_share": "ratio",
    "daemon.dep_hit_share": "ratio", "parallel.efficiency": "ratio",
    "trace.overhead_share": "ratio",
}
#: counts two traced runs of one seed must repeat exactly
EXACT_COUNTS = (
    "solving.queries", "sat.solves", "plugin.axioms", "tiered.switches",
    "theory.conflicts", "daemon.dep_hits", "daemon.dep_misses",
)


#: the metrics :func:`scale_to_nominal` scales
SCALED = ("setup_s", "verify_wall_s", "verify_cpu_s", "obligations_per_s",
          "edit_p50_s", "edit_tail_s")


def layer_unit(name: str) -> str:
    if name in PER_LAYER_UNITS:
        return PER_LAYER_UNITS[name]
    return "s" if name.endswith("_s") or name.endswith(".s") else "count"


def env() -> dict:
    environment = dict(os.environ)
    environment["PYTHONPATH"] = SRC
    return environment


def tail(samples: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it.

    That is the eleventh-largest sample.  Below twenty samples it would
    lie under the median, so the upper quartile stands in for it (the
    largest sample moved by +-25% from run to run).  Returns the value
    and which percentile it is.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 1:
        return ordered[0], "the only one of 1"
    if n < 20:
        return statistics.quantiles(ordered, n=4)[2], f"p75 of {n}"
    return ordered[n - 11], f"p{100 * (n - 10) / n:.0f} of {n}"


# ---------------------------------------------------------------------------
# child processes


class Child:
    """One finished CLI process: wall, CPU and peak RSS of it alone.

    ``os.wait4`` returns the rusage of this child and the children it
    reaped (the pool workers): CPU summed, ``ru_maxrss`` the largest
    single process.  ``RUSAGE_CHILDREN`` would instead be a running
    maximum over every child this benchmark ever reaped.
    """

    def __init__(self, cmd: list[str], out_path: str):
        with open(out_path, "wb") as out, \
                open(out_path + ".err", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env())
            timer = threading.Timer(TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            self.wall = time.perf_counter() - start
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024
        with open(out_path, encoding="utf-8") as handle:
            self.stdout = handle.read()
        with open(out_path + ".err", encoding="utf-8") as handle:
            self.stderr = handle.read()

    @property
    def healthy(self) -> bool:
        return self.code == 0 and "Traceback" not in self.stderr


def cli(args: list[str], out_path: str) -> Child:
    return Child([sys.executable, "-m", "repro.cli", *args], out_path)


def fresh_dir(prefix: str) -> str:
    return tempfile.mkdtemp(prefix=prefix, dir=RUN_DIR)


# ---------------------------------------------------------------------------
# untraced runs


class Tally:
    """Attempted/failed counts plus the first few problems, for output."""

    def __init__(self) -> None:
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def add(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{label}: {p}" for p in problems[:3]]


def cli_setup(workload: str, seed: int, cal):
    """Write the workload's inputs, then start one priming CLI process.

    The priming run verifies the tiny ``nat`` group, so bytecode and
    page caches are warm before timing; users pay that once, not on
    every run.
    """
    import workloads

    if cal is not None:
        cal.sample(KERNELS)
    start = time.perf_counter()
    directory = fresh_dir(f"{workload}-")
    inputs = workloads.cli_inputs(workload, directory, seed)
    from repro.corpus import combined_programs

    prime = os.path.join(directory, "prime.jm")
    workloads.write_text(prime, combined_programs()["nat"])
    child = cli(["verify", "--format", "json", "--no-cache", prime],
                prime + ".out")
    if not child.healthy:
        raise RuntimeError(f"priming CLI run failed: {child.stderr[-500:]}")
    return time.perf_counter() - start, directory, inputs


def cli_workload(workload: str, seed: int, seconds: float, tally: Tally,
                 cal=None):
    import workloads

    setups = []
    for _ in range(SETUPS):
        elapsed, directory, inputs = cli_setup(workload, seed, cal)
        setups.append(elapsed)
    args = ["verify", "--format", "json"]
    if workload == "trees":
        args += ["--budget", str(workloads.TREES_BUDGET)]
    if workload == "generated":
        args += ["--jobs", str(len(os.sched_getaffinity(0)))]
    walls, cpus, rss, rates, decided, decisions = [], [], [], [], [], []
    start = time.perf_counter()
    run = 0
    # Start another process only if it should end within half a
    # process of the window.
    while not walls or (time.perf_counter() - start
                        + statistics.median(walls) / 2 <= seconds):
        run += 1
        if cal is not None:
            cal.sample(KERNELS)
        cache = os.path.join(directory, f"cache-{run}")
        child = cli(args + ["--cache-dir", cache, *inputs.paths],
                    os.path.join(directory, f"run-{run}.out"))
        reports = {}
        if child.healthy:
            try:
                for entry in json.loads(child.stdout)["files"]:
                    if "report" in entry and "error" not in entry:
                        reports[entry["path"]] = entry["report"]
            except (ValueError, KeyError):
                reports = {}
        failure = [] if child.healthy else [
            f"exit {child.code}: {child.stderr.strip()[-300:]}"
        ]
        total = conclusive = 0
        for path in inputs.paths:
            report = reports.get(path)
            if report is None:
                tally.add(path, failure or ["no report"])
                continue
            tally.add(path, inputs.check(path, report))
            n, ok = workloads.obligations(report)
            total += n
            conclusive += ok
            decisions.append(report["solver_stats"]["parallel_decision"])
        walls.append(child.wall)
        cpus.append(child.cpu)
        rss.append(child.rss_mb)
        rates.append(total / child.wall)
        decided.append(conclusive / total if total else 0.0)
    tail_s, which = tail(walls)
    notes = [f"edit_tail_s is the {which} CLI processes"]
    notes += sorted({f"parallel_decision: {d}" for d in decisions})
    if workload == "generated" and not all(
        d.startswith("parallel") for d in decisions
    ):
        notes.append("pool NOT measured: some file was verified serially")
    shutil.rmtree(directory, ignore_errors=True)
    return {
        "setup_s": statistics.median(setups),
        "verify_wall_s": statistics.median(walls),
        "verify_cpu_s": statistics.median(cpus),
        "obligations_per_s": statistics.median(rates),
        "decided_share": statistics.median(decided),
        "peak_rss_mb": statistics.median(rss),
        "edit_p50_s": statistics.median(walls),
        "edit_tail_s": tail_s,
    }, notes


class Daemon:
    """A ``repro serve`` child on a socket inside the checkout."""

    def __init__(self, directory: str):
        from repro.verify.daemon import DaemonClient

        # A relative socket path keeps within the AF_UNIX length limit
        # however deep the checkout is.
        self.socket = os.path.relpath(os.path.join(directory, "d.sock"))
        self.client = None
        self.log = open(os.path.join(directory, "daemon.err"), "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--socket",
             self.socket, "--cache-dir", os.path.join(directory, "cache")],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=self.log, env=env(),
        )
        deadline = time.monotonic() + 60
        while True:
            try:
                self.client = DaemonClient(self.socket, timeout=TIMEOUT_S)
                return
            except OSError:
                if self.proc.poll() is not None or \
                        time.monotonic() > deadline:
                    self.close()
                    raise RuntimeError("repro serve did not come up")
                time.sleep(0.02)

    def cpu_s(self) -> float:
        with open(f"/proc/{self.proc.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf(
            "SC_CLK_TCK"
        )

    def hwm_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM")

    def close(self) -> None:
        from repro.verify.daemon import DaemonError

        if self.client is not None:
            try:
                self.client.shutdown()
            except DaemonError:
                pass
            self.client.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.log.close()


def edit_loop_workload(seed: int, seconds: float, tally: Tally, cal):
    import workloads

    from repro.verify.daemon import DaemonError

    def verify(daemon, script, label) -> list[dict] | None:
        """The request's reports, or None once the daemon has failed."""
        try:
            result = daemon.client.verify(script.paths)
        except DaemonError as exc:
            for path in script.paths:
                tally.add(f"{label} {path}", [f"daemon: {exc}"])
            return None
        reports = []
        for entry in result["files"]:
            path = entry["path"]
            if "report" not in entry or "error" in entry:
                tally.add(f"{label} {path}", [entry.get("error", "no report")])
                continue
            reports.append(entry["report"])
            tally.add(f"{label} {path}", script.key(path)(entry["report"]))
        return reports

    setups = []
    daemon = None
    try:
        for _ in range(SETUPS):
            if daemon is not None:
                daemon.close()
            cal.sample(KERNELS)
            start = time.perf_counter()
            directory = fresh_dir("edit-loop-")
            script = workloads.EditScript(directory, seed)
            daemon = Daemon(directory)
            verify(daemon, script, "priming")
            setups.append(time.perf_counter() - start)
        latencies, walls, rates, decided = [], [], [], []
        cpu_start = daemon.cpu_s()
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            # Between edits, so no latency includes it.
            cal.sample()
            began = time.perf_counter()
            path, kind = script.next_edit()
            script.write(path)
            sent = time.perf_counter()
            reports = verify(daemon, script, f"{kind} {len(walls) + 1}")
            done = time.perf_counter()
            if reports is None:
                break
            latencies.append(done - began)
            walls.append(done - sent)
            total = conclusive = 0
            for report in reports:
                n, ok = workloads.obligations(report)
                total += n
                conclusive += ok
            rates.append(total / (done - sent))
            decided.append(conclusive / total if total else 0.0)
        if not walls:
            raise RuntimeError("the daemon failed before the first edit: "
                               + "; ".join(tally.problems[:3]))
        cpu = (daemon.cpu_s() - cpu_start) / len(walls)
        hwm = daemon.hwm_mb()
    finally:
        if daemon is not None:
            daemon.close()
    tail_s, which = tail(latencies)
    return {
        "setup_s": statistics.median(setups),
        "verify_wall_s": statistics.median(walls),
        "verify_cpu_s": cpu,
        "obligations_per_s": statistics.median(rates),
        "decided_share": statistics.median(decided),
        "peak_rss_mb": hwm,
        "edit_p50_s": statistics.median(latencies),
        "edit_tail_s": tail_s,
    }, [f"edit_tail_s is the {which} edits"]


def scale_to_nominal(metrics: dict, cal) -> list[str]:
    """Scale a run's times (and rates) to the nominal host speed.

    Only the :data:`CALIBRATED` workloads are scaled.  Their verifying
    is one thread at a time, pinned with the kernel to one CPU, and
    there the kernel tracks the host: over five seeds the spread of
    ``verify_wall_s`` fell from 0.23 raw to 0.045 scaled on ``corpus``
    and from 0.14 to 0.077 on ``edit-loop``.  Unpinned, the kernel ran
    on the other vCPU about as often and did not track.  ``generated``
    keeps both CPUs busy, and its kernel did not track the pool
    (spread 0.16 scaled, 0.11 raw); ``trees`` runs until wall-clock
    budgets expire, which a slower host does not lengthen.  Both report
    raw times.
    """
    scale = cal.scale()
    raw = {name: metrics[name] for name in SCALED}
    for name in SCALED:
        if END_TO_END[name] == "1/s":
            metrics[name] /= scale
        else:
            metrics[name] *= scale
    return [
        f"host speed: calibration kernel median {cal.median_s():.5f} s "
        f"over {len(cal.samples)} runs, nominal {calibrate.NOMINAL_S} s; "
        f"scaled by {scale:.4f}: "
        + ", ".join(f"{name} raw {value:.6g}" for name, value in raw.items())
    ]


# ---------------------------------------------------------------------------
# traced runs


def import_cost() -> float:
    """CPU of a fresh ``import repro.cli`` minus a bare interpreter."""
    bare, full = [], []
    directory = fresh_dir("import-")
    for i in range(5):
        for code, into in (("pass", bare), ("import repro.cli", full)):
            child = Child([sys.executable, "-c", code],
                          os.path.join(directory, f"{i}.out"))
            if not child.healthy:
                raise RuntimeError(f"python -c {code!r} failed")
            into.append(child.cpu)
    return statistics.median(full) - statistics.median(bare)


def run_pass(workload: str, seed: int, mode: str, spans: str | None):
    directory = fresh_dir(f"{workload}-{mode}-")
    cmd = [sys.executable, os.path.join(HERE, "trace_pass.py"), workload,
           str(seed), directory, mode]
    if spans:
        cmd.append(spans)
    child = Child(cmd, os.path.join(directory, "pass.out"))
    if not child.healthy:
        raise RuntimeError(f"{mode} pass failed: {child.stderr[-800:]}")
    shutil.rmtree(directory, ignore_errors=True)
    return json.loads(child.stdout.strip().splitlines()[-1])


def traced_workload(workload: str, seed: int, tally: Tally):
    plain = run_pass(workload, seed, "plain", None)
    spans = os.path.join(WORK, f"spans-{workload}-{seed}.jsonl")
    traced = [run_pass(workload, seed, "traced", spans if i == 0 else None)
              for i in range(2)]
    for i, result in enumerate([plain, *traced]):
        for problem in result["problems"]:
            tally.problems.append(f"pass {i}: {problem}")
        tally.attempted += result["attempted"]
        tally.failed += result["failed"]
    # Times and shares: the mean of both traced passes; counts: the first.
    metrics = {
        name: value if layer_unit(name) == "count"
        else statistics.mean(t["layers"][name] for t in traced)
        for name, value in traced[0]["layers"].items()
    }
    metrics["cli.import_s"] = import_cost()
    pool = plain.get("pool")
    metrics["parallel.s"] = pool["s"] if pool else 0.0
    metrics["parallel.tasks"] = pool["tasks"] if pool else 0
    metrics["parallel.retried"] = pool["retried"] if pool else 0
    metrics["parallel.efficiency"] = (
        plain["verify_cpu_s"] / (pool["jobs"] * pool["s"])
        if pool and pool["s"] else 0.0
    )
    traced_cpu = statistics.mean(t["cpu_s"] for t in traced)
    metrics["trace.overhead_share"] = (traced_cpu - plain["cpu_s"]) \
        / plain["cpu_s"]
    notes = [f"spans: {traced[0]['spans']} in {os.path.relpath(spans)}",
             f"trace overhead: untraced pass {plain['cpu_s']:.3f} s CPU, "
             f"traced passes {traced_cpu:.3f} s CPU"]
    if pool:
        notes += sorted({f"parallel_decision: {d}"
                         for d in pool["decisions"]})
        if not pool["s"]:
            notes.append("pool NOT measured: every file was verified "
                         "serially, parallel.* are 0")
    counts = [t["layers"] for t in traced]
    differ = [f"{name}: {counts[0][name]} != {counts[1][name]}"
              for name in EXACT_COUNTS if counts[0][name] != counts[1][name]]
    notes.append("exact-count check: " + (
        "counts differ between two traced runs of one seed: "
        + "; ".join(differ) if differ else
        "passed (" + ", ".join(f"{n}={counts[0][n]}"
                               for n in EXACT_COUNTS) + ")"
    ))
    return metrics, notes


# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        print(f"error: no repro sources under {SRC}; run from the "
              f"repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(WORK, exist_ok=True)
    global RUN_DIR
    RUN_DIR = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        return report(args)
    finally:
        shutil.rmtree(RUN_DIR, ignore_errors=True)


def report(args: argparse.Namespace) -> int:
    tally = Tally()
    print(f"perfbench: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} usable_cpus={len(os.sched_getaffinity(0))} "
          f"python={platform.python_version()}")
    if args.trace:
        metrics, notes = traced_workload(args.workload, args.seed, tally)
        units = {name: layer_unit(name) for name in metrics}
    else:
        cal = None
        if args.workload in CALIBRATED:
            # One process verifies at a time, so one CPU serves it and
            # the benchmark, and the kernel runs on the CPU the verifier
            # runs on: the vCPUs of a shared host slow down apart.
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
            cal = calibrate.Calibration()
        if args.workload == "edit-loop":
            metrics, notes = edit_loop_workload(args.seed, args.seconds,
                                                tally, cal)
        else:
            metrics, notes = cli_workload(args.workload, args.seed,
                                          args.seconds, tally, cal)
        if cal is not None:
            notes += scale_to_nominal(metrics, cal)
        units = END_TO_END
    for note in notes:
        print(note)
    for problem in tally.problems[:20]:
        print(f"FAILED {problem}")
    for name in sorted(metrics):
        print(f"{name} = {metrics[name]:.6g} {units[name]}")
    print(f"failed_share = {tally.failed}/{tally.attempted} = "
          f"{tally.failed / tally.attempted:.6g} ratio")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
