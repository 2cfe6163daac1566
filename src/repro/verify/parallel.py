"""Parallel per-method verification with fault tolerance.

The paper verifies "one method at a time" (Section 7), so the program
table decomposes into independent :class:`~repro.verify.verifier
.VerifyTask` obligations — this module fans them out across a
``ProcessPoolExecutor`` and deterministically reassembles the result:

* the task list is produced in serial (source) order by
  :func:`~repro.verify.verifier.iter_tasks` and results are merged back
  in that same order, so warnings come out byte-identical to a serial
  run, whatever order workers finish in;
* every task runs inside a pristine term-interning scope (the serial
  driver does the same), so models, counterexample text, and cache
  fingerprints do not depend on which worker ran which tasks before;
* each worker process rebuilds its own ``SolverSession`` (solver
  state, in-memory :class:`~repro.smt.cache.SolverCache`) from the
  pickled program table; workers share nothing in memory, but they do
  share the optional disk tier (:mod:`repro.smt.diskcache`), whose
  atomic writes make concurrent access safe — a verdict one worker
  stores is a solve another worker skips.

Throughput comes from amortization, not from more processes:

* **warm workers** — the pool initializer unpickles the table and
  builds the cache tiers once per worker process, so per-task setup is
  a fresh ``Verifier`` over already-warm state; the pattern-algebra
  signature memo fills on first touch and is then shared by all of
  the worker's tasks (only the (viewer, type) pairs its tasks use are
  ever extracted);
* **batching** — many small obligations ship per pool submission
  (:func:`resolve_batch_size`; ``batch_size="auto"`` sizes batches
  from the task and worker counts), collapsing the per-future
  submit/pickle/result overhead that made one-obligation-per-task
  *slower* than serial on corpus-sized workloads.  Outcomes stay
  per-task inside each batch, so merging is unchanged.  Runs under
  ``--task-timeout`` keep single-task batches: a deadline or a
  degradation must attribute to exactly one method;
* **serial fallback for tiny workloads** — both ``--jobs auto`` and an
  explicit ``--jobs N`` stay serial below a small task count
  (:data:`MIN_TASKS_PARALLEL`), where pool spawn dominates; the
  decision is recorded on ``VerifyStats.parallel_decision`` (rendered
  by ``--stats``) and as a trace event.

The pipeline survives worker failure the way the solver already
survives hard queries — by degrading instead of diverging (the paper's
Section 6.2 time budget turns an undecidable obligation into a
conservative warning; this module does the same at the process level):

* **crash recovery** — tasks go through per-task ``submit`` with
  completion tracking, so when a worker dies (OOM killer, hard crash:
  ``BrokenProcessPool``) every already-completed outcome is kept, the
  pool is respawned once, and only the unfinished tasks are retried;
  tasks still unfinished after the retry round run serially in this
  process.  A task whose execution raises (worker alive) skips the
  pool retry — a deterministic exception would just recur — and goes
  straight to the serial fallback; if it fails there too, it degrades
  to an UNKNOWN-style warning instead of crashing the run.
* **per-task deadlines** — ``task_timeout`` bounds each obligation's
  wall time via ``SIGALRM`` in whichever process runs it, converting a
  hung task into a deterministic UNKNOWN-style warning attributed to
  its method.  A parent-side watchdog backstops the alarm: if no task
  completes for well past the deadline (alarm lost, worker wedged in
  native code), the workers are killed and the unfinished tasks take
  the crash-recovery path.  On platforms without ``SIGALRM`` the
  deadline is best-effort (no-op).
* **accounting** — ``tasks_retried`` / ``tasks_timed_out`` /
  ``tasks_failed`` land on :class:`~repro.metrics.solver_stats
  .VerifyStats` (and the report), rendered by ``verify --stats``.

Every recovery path is exercised deterministically in tests through
the :mod:`repro.verify.faults` harness (``REPRO_FAULT``).

Processes, not threads: solving is pure-Python CPU work, so threads
would serialize on the GIL.  The ``fork`` start method is preferred
for its low startup cost; ``spawn`` (macOS, Windows) works the same
way because all worker state flows through the initializer.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import signal
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

from ..errors import Diagnostics, Warning, WarningKind
from ..lang.symbols import ProgramTable
from ..metrics.solver_stats import VerifyStats
from ..obs import NULL_TRACER, Span, Tracer
from .faults import active_fault, maybe_fail_task
from .verifier import (
    VerificationReport,
    Verifier,
    VerifyTask,
    iter_tasks,
    task_span,
)


@dataclass
class TaskOutcome:
    """What one verification task sends back from its worker."""

    warnings: list[Warning] = field(default_factory=list)
    methods_checked: int = 0
    statements_checked: int = 0
    stats: VerifyStats = field(default_factory=VerifyStats)
    #: the task's recorded span tree (rooted at its ``task`` span) when
    #: tracing is on; plain data, so it pickles back from a pool worker
    trace: Span | None = None


class TaskTimeout(Exception):
    """A task overran its per-task wall-clock deadline."""


def deadline_armable() -> bool:
    """Can a :func:`task_deadline` actually interrupt this thread?

    ``SIGALRM``/``setitimer`` only arm on the main thread of a process
    on platforms that have them.  Pool workers always qualify (they run
    tasks on their main thread); a daemon connection-handler thread
    never does — callers on such threads must take the soft-deadline
    path in :func:`run_one_task` instead of assuming the alarm works.
    """
    return (
        hasattr(signal, "setitimer")
        and threading.current_thread() is threading.main_thread()
    )


@contextlib.contextmanager
def task_deadline(seconds: float | None):
    """Raise :class:`TaskTimeout` in this thread after ``seconds``.

    Arms only where :func:`deadline_armable` holds; anywhere else this
    is a no-op and the caller is responsible for the degraded path
    (budget clamping + post-hoc overrun conversion in
    :func:`run_one_task`, the parent-side watchdog for pool runs).
    """
    if seconds is None or not deadline_armable():
        yield
        return

    def _on_alarm(signum, frame):
        raise TaskTimeout()

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def build_cache(use_cache: bool, cache_dir: str | None):
    """The cache tiers one verifying process uses (or None).

    The single construction point for "an in-memory tier, optionally in
    front of a disk tier at ``cache_dir``" — the worker initializer,
    the serial path, and the serial fallback all call it, so the tier
    wiring cannot drift between them.
    """
    if not use_cache:
        return None
    from ..smt.cache import SolverCache

    disk = None
    if cache_dir is not None:
        from ..smt.diskcache import DiskCache

        disk = DiskCache(cache_dir)
    return SolverCache(disk=disk)


#: per-worker-process state, set once by the pool initializer
_WORKER: dict = {}


def _init_worker(
    table: ProgramTable,
    budget: float | None,
    use_cache: bool,
    cache_dir: str | None,
    incremental: bool = True,
    task_timeout: float | None = None,
    trace: bool = False,
    tier: str = "auto",
    backend: str | None = None,
) -> None:
    """Build this worker's warm state (runs once per process): the
    table and the cache tiers, shared by all of this worker's tasks."""
    _WORKER["table"] = table
    _WORKER["budget"] = budget
    _WORKER["cache"] = build_cache(use_cache, cache_dir)
    _WORKER["incremental"] = incremental
    _WORKER["task_timeout"] = task_timeout
    _WORKER["trace"] = trace
    _WORKER["tier"] = tier
    _WORKER["backend"] = backend


def run_one_task(
    table: ProgramTable,
    task: VerifyTask,
    budget: float | None,
    cache,
    incremental: bool,
    task_timeout: float | None,
    trace: bool = False,
    tier: str = "auto",
    backend: str | None = None,
) -> TaskOutcome:
    """Verify one task, rebuilding the solver session.

    A fresh :class:`Verifier` (and with it a fresh ``SolverSession``)
    is constructed per task; only the caller's query cache persists
    between tasks, and cached verdicts never change warnings.  When
    ``trace`` is set the task records its spans under a private
    :class:`~repro.obs.Tracer` whose single root (the task span) ships
    back on ``TaskOutcome.trace`` for the parent to re-attach.  A task
    that overruns ``task_timeout`` returns a deterministic timed-out
    outcome (partial warnings — and partial spans — are discarded: how
    far a deadline lets a task get is scheduler noise); other failures
    propagate.

    Off the main thread (a daemon handler), the ``SIGALRM`` deadline
    cannot arm, so the timeout degrades instead of silently vanishing:
    the per-query budget is clamped to the task timeout (bounding the
    worst single overshoot, since a soft deadline cannot interrupt a
    query mid-solve), an overrun is converted post-hoc into the same
    timed-out outcome the alarm would have produced, and the
    degradation is surfaced on ``VerifyStats.deadlines_degraded`` and
    as a ``deadline-degraded`` trace event.
    """
    degraded = task_timeout is not None and not deadline_armable()
    effective_budget = budget
    if degraded:
        effective_budget = (
            task_timeout if budget is None else min(budget, task_timeout)
        )
    tracer = Tracer() if trace else NULL_TRACER
    verifier = Verifier(
        table, budget=effective_budget, cache=cache, incremental=incremental,
        tracer=tracer, tier=tier, backend=backend,
    )
    started = time.perf_counter()
    try:
        with task_deadline(task_timeout):
            maybe_fail_task(task.label)
            verifier.run_task(task)
    except TaskTimeout:
        return _timed_out_outcome(table, task, task_timeout, trace)
    if degraded and time.perf_counter() - started > task_timeout:
        outcome = _timed_out_outcome(table, task, task_timeout, trace)
        _mark_degraded(outcome)
        return outcome
    outcome = TaskOutcome(
        warnings=verifier.diag.warnings,
        methods_checked=verifier.methods_checked,
        statements_checked=verifier.statements_checked,
        stats=verifier.session.stats,
        trace=tracer.roots[0] if trace and tracer.roots else None,
    )
    if degraded:
        _mark_degraded(outcome)
    return outcome


def _mark_degraded(outcome: TaskOutcome) -> None:
    outcome.stats.deadlines_degraded = 1
    if outcome.trace is not None:
        outcome.trace.event("deadline-degraded")


def _degraded_trace(task: VerifyTask, event: str, **attrs) -> Span:
    """A synthetic task span for a task that never finished normally.

    Replaces whatever partial spans the doomed attempt recorded — like
    partial warnings, they depend on where the scheduler cut the task
    off, so a fixed single-span tree keeps degraded traces
    deterministic.
    """
    span = Span("task", task.label, attrs={"kind": task.kind})
    span.event(event, **attrs)
    return span


def _timed_out_outcome(
    table: ProgramTable,
    task: VerifyTask,
    task_timeout: float | None,
    trace: bool = False,
) -> TaskOutcome:
    """The degraded outcome of a task cut off by its deadline."""
    diag = Diagnostics()
    diag.warn(
        WarningKind.UNKNOWN,
        f"verification of {task.label} exceeded the task timeout "
        f"({task_timeout:g}s); treating this obligation as inconclusive",
        task_span(table, task),
    )
    stats = VerifyStats()
    stats.tasks_timed_out = 1
    outcome = TaskOutcome(warnings=diag.warnings, stats=stats)
    if trace:
        outcome.trace = _degraded_trace(
            task, "timeout", seconds=task_timeout
        )
    return outcome


def _failed_outcome(
    table: ProgramTable,
    task: VerifyTask,
    exc: BaseException,
    trace: bool = False,
) -> TaskOutcome:
    """The degraded outcome of a task that failed its last retry."""
    diag = Diagnostics()
    diag.warn(
        WarningKind.UNKNOWN,
        f"verification of {task.label} failed "
        f"({type(exc).__name__}); treating this obligation as inconclusive",
        task_span(table, task),
    )
    stats = VerifyStats()
    stats.tasks_failed = 1
    outcome = TaskOutcome(warnings=diag.warnings, stats=stats)
    if trace:
        outcome.trace = _degraded_trace(
            task, "failed", error=type(exc).__name__
        )
    return outcome


def verify_method_task(task: VerifyTask) -> TaskOutcome:
    """Verify one task inside a pool worker (see :func:`run_one_task`)."""
    return run_one_task(
        _WORKER["table"],
        task,
        _WORKER["budget"],
        _WORKER["cache"],
        _WORKER.get("incremental", True),
        _WORKER.get("task_timeout"),
        _WORKER.get("trace", False),
        _WORKER.get("tier", "auto"),
        backend=_WORKER.get("backend"),
    )


def verify_batch_task(tasks: list[VerifyTask]) -> list:
    """Verify a batch of tasks inside a pool worker, one entry per task.

    Each entry is that task's :class:`TaskOutcome`, or the exception
    its run raised — per-member, so one poisoned obligation does not
    discard its batchmates' finished work.  Fault injection
    (``REPRO_FAULT``) keeps per-method naming: :func:`run_one_task`
    consults the harness with each member's own label, so
    ``crash:T.m`` fires exactly when the batch reaches ``T.m`` (a
    crash then loses the batch's buffered outcomes — the parent
    re-runs those members in isolation).  Per-member deadlines arm
    inside :func:`run_one_task` too, so a hung member times out alone
    and its batchmates keep running.
    """
    results: list = []
    for task in tasks:
        try:
            results.append(verify_method_task(task))
        except Exception as exc:
            results.append(exc)
    return results


def _pool_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def merge_outcomes(
    outcomes: list[TaskOutcome], seconds: float
) -> VerificationReport:
    """Fold per-task outcomes (already in task order) into one report."""
    diag = Diagnostics()
    stats = VerifyStats()
    methods_checked = 0
    statements_checked = 0
    for outcome in outcomes:
        diag.warnings.extend(outcome.warnings)
        stats.merge(outcome.stats)
        methods_checked += outcome.methods_checked
        statements_checked += outcome.statements_checked
    return VerificationReport(
        diag,
        seconds=seconds,
        methods_checked=methods_checked,
        statements_checked=statements_checked,
        solver_stats=stats,
    )


#: below this many tasks, ``--jobs auto`` stays serial: pool startup and
#: table pickling cost more than the queries they would parallelize
AUTO_MIN_TASKS = 8

#: ``--jobs auto`` never uses more workers than this, however many
#: cores the box has; the corpus-sized workloads stop scaling earlier
AUTO_MAX_JOBS = 8

#: even an *explicit* ``--jobs N`` stays serial below this many tasks:
#: pool spawn alone costs more than verifying a near-empty program, so
#: honoring N to the letter would only ever make those runs slower
#: (BENCH_verify recorded 0.53x on exactly this shape).  Deliberately
#: lower than AUTO_MIN_TASKS — an explicit N is a stated preference,
#: so only the hopeless cases override it.
MIN_TASKS_PARALLEL = 4

#: ``--batch-size auto`` aims for about this many batches per worker,
#: enough slack for the pool to rebalance around uneven task costs
BATCHES_PER_WORKER = 4

#: ``--batch-size auto`` never batches more obligations than this into
#: one submission, bounding how much finished work a crashed worker
#: can take down with it
MAX_AUTO_BATCH = 64


def resolve_jobs(jobs: int | str, task_count: int) -> int:
    """Turn a ``--jobs`` value (an int or ``"auto"``) into a worker count.

    ``auto`` falls back to serial on single-CPU machines and for small
    task counts -- BENCH_verify.json recorded a 0.73x parallel
    "speedup" on a 1-CPU box, so process-pool overhead must never be
    the default.  An explicit integer is honored except below
    :data:`MIN_TASKS_PARALLEL` tasks, where the pool cannot win.
    """
    if jobs != "auto":
        requested = int(jobs)
        if requested > 1 and task_count < MIN_TASKS_PARALLEL:
            return 1
        return requested
    cpus = os.cpu_count() or 1
    if cpus < 2 or task_count < AUTO_MIN_TASKS:
        return 1
    return max(1, min(cpus, task_count, AUTO_MAX_JOBS))


def resolve_batch_size(
    batch_size: int | str,
    task_count: int,
    jobs: int,
    task_timeout: float | None = None,
) -> int:
    """Turn a ``--batch-size`` value into obligations per submission.

    ``auto`` targets :data:`BATCHES_PER_WORKER` batches per worker
    (capped at :data:`MAX_AUTO_BATCH`), which amortizes submit/pickle
    overhead while leaving the pool enough batches to load-balance.
    Under ``task_timeout`` it stays at 1: a deadline must cut off and
    attribute exactly one method, and a batch would stretch the
    parent-side watchdog window by its whole length.  An explicit
    integer is honored as given — including alongside a timeout, for
    callers who prefer throughput over tail-latency attribution.
    """
    if batch_size != "auto":
        return max(1, int(batch_size))
    if jobs <= 1 or task_timeout is not None:
        return 1
    target = -(-task_count // (jobs * BATCHES_PER_WORKER))  # ceil div
    return max(1, min(MAX_AUTO_BATCH, target))


def describe_parallel_decision(
    requested: int | str, jobs: int, task_count: int, batch_size: int
) -> str:
    """One human-readable line on how the run's driver was chosen.

    Lands on ``VerifyStats.parallel_decision`` (rendered by
    ``--stats``) and on the trace as a ``jobs-decision`` event, so
    "why did my --jobs 8 run serially?" is answerable from the output.
    """
    if jobs > 1:
        return (
            f"parallel: {jobs} workers over {task_count} tasks, "
            f"batch size {batch_size} (requested jobs={requested})"
        )
    if requested == 1:
        return f"serial: as requested (jobs=1, {task_count} tasks)"
    if requested != "auto" and task_count < MIN_TASKS_PARALLEL:
        return (
            f"serial: {task_count} tasks is below the parallel "
            f"threshold ({MIN_TASKS_PARALLEL}) — pool spawn would cost "
            f"more than it saves (requested jobs={requested})"
        )
    if requested == "auto" and task_count < AUTO_MIN_TASKS:
        return (
            f"serial: {task_count} tasks is below the auto threshold "
            f"({AUTO_MIN_TASKS}) (requested jobs=auto)"
        )
    return (
        f"serial: too few usable CPUs for a pool to win "
        f"({task_count} tasks, requested jobs={requested})"
    )


def _stall_window(task_timeout: float) -> float:
    """How long zero completions may pass before the watchdog fires.

    Generous on purpose: every healthy worker either finishes its task
    or has its in-worker alarm fire within ``task_timeout``, so a
    silent stretch of twice that (plus scheduling slack) means every
    worker is wedged past its alarm.
    """
    return task_timeout * 2 + 5.0


def _chunk(items: list, size: int) -> list[list]:
    """Split ``items`` into consecutive runs of at most ``size``."""
    return [items[i : i + size] for i in range(0, len(items), size)]


def _drain_pool(
    pool: ProcessPoolExecutor,
    indexed_tasks: list[tuple[int, VerifyTask]],
    task_timeout: float | None,
    batch_size: int = 1,
):
    """Submit task batches and collect outcomes until done or broken.

    Returns ``(outcomes, raised, broken)``: outcomes and in-worker
    exceptions by task index, plus whether the pool died (worker crash
    or watchdog kill) — in which case unaccounted tasks are simply the
    ones in neither dict.  A batch resolves member-by-member: finished
    members land in ``outcomes``, members whose run raised land in
    ``raised``, so one bad obligation never voids its batchmates.
    """
    futures = {
        pool.submit(verify_batch_task, [task for _, task in batch]): batch
        for batch in _chunk(indexed_tasks, batch_size)
    }
    outcomes: dict[int, TaskOutcome] = {}
    raised: dict[int, BaseException] = {}
    broken = False
    pending = set(futures)
    # A healthy batch may legitimately produce nothing for as long as
    # every member in sequence takes its full deadline.
    window = (
        _stall_window(task_timeout * batch_size)
        if task_timeout is not None
        else None
    )
    while pending and not broken:
        done, pending = wait(
            pending, timeout=window, return_when=FIRST_COMPLETED
        )
        if not done:
            # Watchdog: nothing completed for well past the per-task
            # deadline, so the in-worker alarms are not firing (wedged
            # in native code, signal lost).  Kill the workers; the
            # unfinished tasks take the crash-recovery path.
            for process in list(getattr(pool, "_processes", {}).values()):
                process.terminate()
            broken = True
            break
        for future in done:
            batch = futures[future]
            try:
                results = future.result()
            except BrokenProcessPool:
                broken = True
                continue
            except Exception as exc:
                # The batch call itself failed (e.g. its result did not
                # unpickle); every member takes the serial-fallback path.
                for index, _ in batch:
                    raised[index] = exc
                continue
            for (index, _), result in zip(batch, results):
                if isinstance(result, TaskOutcome):
                    outcomes[index] = result
                else:  # the member's run raised inside a live worker
                    raised[index] = result
    return outcomes, raised, broken


def _run_rounds(
    table: ProgramTable,
    tasks: list[VerifyTask],
    jobs: int,
    budget: float | None,
    use_cache: bool,
    cache_dir: str | None,
    incremental: bool,
    task_timeout: float | None,
    trace: bool = False,
    tier: str = "auto",
    batch_size: int = 1,
    backend: str | None = None,
) -> tuple[dict[int, TaskOutcome], int]:
    """The pool rounds plus serial fallback; every task gets an outcome.

    Round one submits everything in batches of ``batch_size``; if the
    pool breaks, round two respawns it and retries only the unfinished
    tasks — in single-task batches, so a poisoned obligation can take
    down at most itself the second time.  Whatever is left after that —
    and any task that raised inside a worker — runs serially in this
    process, where a final failure degrades to an UNKNOWN-style warning
    instead of taking the run down.  Retried tasks get a ``retry``
    event on their task span, so a trace shows which obligations
    survived a crash.
    """
    outcomes: dict[int, TaskOutcome] = {}
    retried = 0
    retried_indices: set[int] = set()
    fallback: dict[int, VerifyTask] = {}
    remaining = list(enumerate(tasks))
    for round_number in (1, 2):
        if not remaining:
            break
        round_batch = batch_size
        if round_number == 2:
            retried += len(remaining)
            retried_indices.update(index for index, _ in remaining)
            round_batch = 1
        pool = ProcessPoolExecutor(
            max_workers=min(jobs, len(remaining)),
            mp_context=_pool_context(),
            initializer=_init_worker,
            initargs=(
                table,
                budget,
                use_cache,
                cache_dir,
                incremental,
                task_timeout,
                trace,
                tier,
                backend,
            ),
        )
        try:
            done, raised, broken = _drain_pool(
                pool, remaining, task_timeout, round_batch
            )
        except BaseException:
            # KeyboardInterrupt (or anything unexpected): drop queued
            # work without blocking on what is already running.
            pool.shutdown(wait=False, cancel_futures=True)
            raise
        pool.shutdown(wait=not broken, cancel_futures=True)
        outcomes.update(done)
        fallback.update(
            (index, task) for index, task in remaining if index in raised
        )
        remaining = [
            (index, task)
            for index, task in remaining
            if index not in outcomes and index not in raised
        ]
        if not broken:
            break
    fallback.update(remaining)
    if fallback:
        retried += len(fallback)
        retried_indices.update(fallback)
        cache = build_cache(use_cache, cache_dir)
        for index, task in sorted(fallback.items()):
            try:
                outcomes[index] = run_one_task(
                    table, task, budget, cache, incremental, task_timeout,
                    trace, tier, backend=backend,
                )
            except Exception as exc:
                outcomes[index] = _failed_outcome(table, task, exc, trace)
    if trace:
        for index in retried_indices:
            outcome = outcomes.get(index)
            if outcome is not None and outcome.trace is not None:
                outcome.trace.event("retry")
    return outcomes, retried


def verify_serial_with_timeout(
    table: ProgramTable,
    budget: float | None = None,
    cache=None,
    incremental: bool = True,
    task_timeout: float | None = None,
    tracer=NULL_TRACER,
    options=None,
    tier: str = "auto",
    backend: str | None = None,
) -> VerificationReport:
    """The serial driver with per-task deadlines and degradation.

    The ``jobs == 1`` analogue of the fault-tolerant pipeline (also its
    in-process fallback semantics): each task runs under the deadline,
    and a task that raises degrades to an UNKNOWN-style warning.  An
    explicit ``options`` (:class:`repro.api.VerifyOptions`) supplies
    budget/incremental/task_timeout; ``cache`` stays a direct argument
    because the caller has already resolved the tiers.
    """
    if options is not None:
        budget = options.budget
        incremental = options.incremental
        task_timeout = options.task_timeout
        tier = options.tier
        backend = options.backend
    active_fault()  # reject a malformed REPRO_FAULT loudly, up front
    start = time.perf_counter()
    trace = tracer.enabled
    outcomes: list[TaskOutcome] = []
    for task in iter_tasks(table):
        try:
            outcome = run_one_task(
                table, task, budget, cache, incremental, task_timeout,
                trace, tier, backend=backend,
            )
        except Exception as exc:
            outcome = _failed_outcome(table, task, exc, trace)
        outcomes.append(outcome)
        # Each task records under its own private tracer (matching the
        # worker protocol exactly); adopt its tree in task order.
        tracer.attach(outcome.trace)
    return merge_outcomes(outcomes, time.perf_counter() - start)


def verify_parallel(
    table: ProgramTable,
    jobs: int | str = 1,
    budget: float | None = None,
    use_cache: bool = True,
    cache_dir: str | None = None,
    incremental: bool = True,
    task_timeout: float | None = None,
    tracer=NULL_TRACER,
    options=None,
    tier: str = "auto",
    batch_size: int | str = "auto",
    backend: str | None = None,
) -> VerificationReport:
    """Verify every task of ``table`` on a pool of ``jobs`` processes.

    Partial results are always preserved: outcomes are tracked per
    task, merged in deterministic task order exactly as a serial run
    would produce them, whatever crashed, hung, or got retried along
    the way (see the module docstring for the recovery policy).  Worker
    span trees are re-attached to ``tracer`` in that same task order,
    so a traced parallel run yields the serial span tree modulo span
    ids, pids, and timings.  An explicit ``options``
    (:class:`repro.api.VerifyOptions`) supplies every scalar knob.
    """
    if options is not None:
        jobs = options.jobs
        budget = options.budget
        use_cache = options.use_cache
        cache_dir = options.cache_dir
        incremental = options.incremental
        task_timeout = options.task_timeout
        tier = options.tier
        batch_size = options.batch_size
        backend = options.backend
    active_fault()  # reject a malformed REPRO_FAULT loudly, up front
    tasks = list(iter_tasks(table))
    requested = jobs
    jobs = resolve_jobs(jobs, len(tasks))
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if jobs > 1 and len(tasks) <= 1:
        jobs = 1
    batch_size = resolve_batch_size(
        batch_size, len(tasks), jobs, task_timeout
    )
    decision = describe_parallel_decision(
        requested, jobs, len(tasks), batch_size
    )
    if tracer.enabled:
        tracer.event("jobs-decision", decision=decision)
    start = time.perf_counter()
    if jobs == 1:
        # Nothing to fan out: take the serial path (same code, no pool).
        cache = build_cache(use_cache, cache_dir)
        if task_timeout is None:
            report = Verifier(
                table, budget=budget, cache=cache, incremental=incremental,
                tracer=tracer, tier=tier, backend=backend,
            ).run()
        else:
            report = verify_serial_with_timeout(
                table,
                budget=budget,
                cache=cache,
                incremental=incremental,
                task_timeout=task_timeout,
                tracer=tracer,
                tier=tier,
                backend=backend,
            )
        report.solver_stats.parallel_decision = decision
        return report
    outcomes, retried = _run_rounds(
        table, tasks, jobs, budget, use_cache, cache_dir, incremental,
        task_timeout, tracer.enabled, tier, batch_size, backend=backend,
    )
    assert len(outcomes) == len(tasks), "every task must have an outcome"
    if tracer.enabled:
        for index in range(len(tasks)):
            tracer.attach(outcomes[index].trace)
    report = merge_outcomes(
        [outcomes[index] for index in range(len(tasks))],
        time.perf_counter() - start,
    )
    report.solver_stats.tasks_retried += retried
    report.solver_stats.parallel_decision = decision
    return report
