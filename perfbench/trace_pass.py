"""One in-process pass over a workload, traced or not (used by run.py).

    python3 perfbench/trace_pass.py WORKLOAD SEED WORKDIR plain|traced [SPANS]

Runs in its own process so every pass starts cold (no interned terms,
memoised fingerprints or cache entries left over from another pass),
and prints one JSON object.  The ``plain`` pass is the untraced
baseline the tracing overhead is measured against; for ``generated``
it then also times the process pool as whole ``api.verify`` calls, the
only view of the pool an in-process wrapper has.  A ``traced`` pass
installs :mod:`layers` and reports the per-layer split; ``SPANS`` names
the file its spans are written to when it ends.

CLI workloads verify each file as ``repro.cli verify`` does: compile,
then ``api.verify`` with the process-wide cache over a fresh disk tier.
``edit-loop`` hosts the daemon object in this process: one cold
priming request (untimed, untraced), then :data:`EDITS` edit-verify
requests, the first ones of the seed's edit sequence.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import layers  # noqa: E402
import workloads  # noqa: E402

#: edit-verify requests in one in-process edit-loop pass
EDITS = 30
#: the daemon layer's metrics on the workloads that run no daemon
DAEMON_IDLE = {
    "daemon.dep_hits": 0, "daemon.dep_misses": 0,
    "daemon.dep_hit_share": 0.0, "daemon.overhead_s": 0.0,
}


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def cli_pass(workload: str, seed: int, workdir: str, jobs: int,
             tracer) -> dict:
    from repro import api
    from repro.smt.cache import GLOBAL_CACHE
    from repro.verify.verifier import iter_tasks

    inputs = workloads.cli_inputs(workload, workdir, seed)
    budget = workloads.TREES_BUDGET if workload == "trees" else None
    out = {"attempted": 0, "failed": 0, "problems": [], "verify_cpu_s": 0.0}

    def one(path: str, options):
        unit = api.compile_program(_read(path), filename=path)
        wall, cpu = time.perf_counter(), time.process_time()
        report = api.verify(unit, options=options)
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        problems = inputs.check(path, report.to_dict())
        out["attempted"] += 1
        if problems:
            out["failed"] += 1
            out["problems"] += [f"{path}: {p}" for p in problems[:3]]
        return unit, report, wall, cpu

    options = api.VerifyOptions(
        budget=budget, cache=GLOBAL_CACHE, jobs=1,
        cache_dir=os.path.join(workdir, "cache-serial"),
    )
    start = time.process_time()
    for index, path in enumerate(inputs.paths):
        if tracer is not None:
            tracer.group = index
        _, _, _, cpu = one(path, options)
        out["verify_cpu_s"] += cpu
    out["cpu_s"] = time.process_time() - start
    if workload == "generated" and tracer is None:
        # The pool, timed from outside as the calls that fan out to it.
        options = api.VerifyOptions(
            cache=GLOBAL_CACHE, jobs=jobs,
            cache_dir=os.path.join(workdir, "cache-pool"),
        )
        pool = {"s": 0.0, "tasks": 0, "retried": 0, "decisions": []}
        for path in inputs.paths:
            unit, report, wall, _ = one(path, options)
            decision = report.solver_stats.parallel_decision
            pool["decisions"].append(decision)
            if decision.startswith("parallel"):
                pool["s"] += wall
                pool["tasks"] += sum(1 for _ in iter_tasks(unit.table))
                pool["retried"] += report.solver_stats.tasks_retried
        pool["jobs"] = jobs
        out["pool"] = pool
    return out


def edit_loop_pass(seed: int, workdir: str, traced: bool):
    from repro.verify.daemon import VerifyDaemon

    script = workloads.EditScript(workdir, seed)
    daemon = VerifyDaemon(cache_dir=os.path.join(workdir, "cache"))
    out = {"attempted": 0, "failed": 0, "problems": []}
    request_id = 0

    def request() -> tuple[dict, float]:
        nonlocal request_id
        request_id += 1
        start = time.perf_counter()
        response = daemon.handle_request({
            "id": request_id, "op": "verify", "paths": script.paths,
            "options": {},
        })
        latency = time.perf_counter() - start
        result = response["result"]
        for entry in result["files"]:
            out["attempted"] += 1
            problems = script.key(entry["path"])(entry["report"])
            if problems:
                out["failed"] += 1
                out["problems"] += [
                    f"request {request_id} {entry['path']}: {p}"
                    for p in problems[:3]
                ]
        return result, latency

    request()  # the cold priming request: untimed and untraced
    tracer = layers.install() if traced else None
    hits = misses = 0
    overheads = []
    start = time.process_time()
    for edit in range(EDITS):
        if tracer is not None:
            tracer.group = edit + 1
        path, _ = script.next_edit()
        script.write(path)
        result, latency = request()
        hits += result["dep_hits"]
        misses += result["dep_misses"]
        covered = sum(e["report"]["seconds"] for e in result["files"])
        overheads.append(latency - covered)
    out["cpu_s"] = time.process_time() - start
    out["daemon"] = {
        "daemon.dep_hits": hits,
        "daemon.dep_misses": misses,
        "daemon.dep_hit_share": hits / (hits + misses),
        "daemon.overhead_s": statistics.median(overheads),
    }
    return out, tracer


def main(argv: list[str]) -> int:
    workload, seed, workdir, mode = argv[:4]
    seed = int(seed)
    traced = mode == "traced"
    if workload == "edit-loop":
        out, tracer = edit_loop_pass(seed, workdir, traced)
    else:
        tracer = layers.install() if traced else None
        jobs = len(os.sched_getaffinity(0))
        out = cli_pass(workload, seed, workdir, jobs, tracer)
    if tracer is not None:
        out["layers"] = {
            **layers.layer_metrics(tracer),
            **out.pop("daemon", DAEMON_IDLE),
        }
        out["spans"] = len(tracer.span_layer)
        if len(argv) > 4:
            tracer.write(argv[4])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
