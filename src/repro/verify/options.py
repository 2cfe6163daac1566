"""The verification configuration: ``VerifyOptions``.

One object carries every knob of a run; ``api.verify`` and the
drivers behind it (``Verifier``, ``verify_parallel``,
``verify_serial_with_timeout``, ``run_one_task``) all read it.  Each
field is documented below; the observability fields are:

* ``trace`` — a path; the run's span tree is written there as JSONL
  (see :mod:`repro.obs.sink`).
* ``tracer`` — an externally-owned :class:`repro.obs.Tracer` to record
  into instead; the CLI uses this to collect several files under one
  ``run`` span.  When both are None, tracing is disabled and the
  pipeline runs with the zero-cost null tracer.
* ``format`` — output rendering for the CLI (``"text"`` is
  byte-identical to the historical output; ``"json"`` emits
  :meth:`~repro.verify.verifier.VerificationReport.to_dict` documents).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from ..smt.backend import backend_names
from ..smt.cache import GLOBAL_CACHE, SolverCache

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs import Tracer

#: accepted values of ``VerifyOptions.format``
OUTPUT_FORMATS = ("text", "json")

#: accepted values of ``VerifyOptions.tier`` (see repro.verify.tiered)
TIERS = ("auto", "smt-only", "algebra-only", "check")


@dataclass
class VerifyOptions:
    """Every knob of one verification run, in one picklable-ish bundle.

    (The ``cache`` and ``tracer`` fields hold live objects and do not
    cross process boundaries; the parallel driver ships workers a copy
    without them, plus whether to cache and whether to trace.)
    """

    #: per-query SMT wall-time budget in seconds (None: solver default)
    budget: float | None = None
    #: the query cache: the process-wide one, a private SolverCache, or
    #: None to solve every query from scratch
    cache: SolverCache | None = GLOBAL_CACHE
    #: worker processes (int), or "auto" to size from CPUs and tasks
    jobs: int | str = 1
    #: persistent disk verdict-cache directory (None: no disk tier)
    cache_dir: str | None = None
    #: wall-clock limit per verification task (method), in seconds
    task_timeout: float | None = None
    #: obligations per parallel worker submission: an int, or "auto" to
    #: size batches from the task and worker counts (serial runs and
    #: runs under ``task_timeout`` always use single-task batches, so
    #: tail latency and timeout attribution stay per-method)
    batch_size: int | str = "auto"
    #: path to write the run's JSONL trace (None: tracing off)
    trace: str | None = None
    #: an externally-owned tracer to record into (overrides ``trace``
    #: file handling; the caller writes the sink)
    tracer: "Tracer | None" = field(default=None, repr=False)
    #: CLI output rendering: "text" (historical) or "json"
    format: str = "text"
    #: checker tiering: "auto" (syntactic pattern algebra first, SMT
    #: for the rest), "smt-only" (the historical pipeline),
    #: "algebra-only" (algebra verdicts alone, for testing), or
    #: "check" (run both on algebra-decidable obligations and fail on
    #: disagreement -- see :mod:`repro.verify.tiered`)
    tier: str = "auto"
    #: solving strategy by registry name (see :mod:`repro.smt.backend`):
    #: "incremental" (persistent engines, the default), "reference"
    #: (rebuild-per-query), "z3" (optional z3py), or any name added
    #: with :func:`repro.api.register_backend`
    backend: str = "incremental"

    @property
    def use_cache(self) -> bool:
        return self.cache is not None

    @property
    def trace_enabled(self) -> bool:
        return self.trace is not None or self.tracer is not None

    def replace(self, **changes) -> "VerifyOptions":
        """A copy with ``changes`` applied (``dataclasses.replace``)."""
        return replace(self, **changes)

    def validate(self) -> None:
        """Raise ``ValueError`` on out-of-range settings — and normalize.

        ``jobs``/``batch_size`` arrive as strings from CLIs and config
        files; validation converts them to ``int`` *in place*, so the
        drivers downstream never see ``jobs="3"`` (which used to pass
        validation un-normalized and then fail arithmetic later).
        Booleans are rejected explicitly: ``jobs=True`` is ``int(True)
        == 1`` by accident of the bool/int subtyping, never intent.
        """
        # budget 0.0 is legal: it starves every query to UNKNOWN, which
        # the budget-threading tests use to make solving observable
        if self.budget is not None and self.budget < 0:
            raise ValueError(
                f"budget must be non-negative, got {self.budget}"
            )
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError(
                f"task_timeout must be positive, got {self.task_timeout}"
            )
        self.jobs = self._normalize_count("jobs", self.jobs)
        self.batch_size = self._normalize_count("batch_size", self.batch_size)
        if self.format not in OUTPUT_FORMATS:
            raise ValueError(
                f"format must be one of {OUTPUT_FORMATS}, got {self.format!r}"
            )
        if self.tier not in TIERS:
            raise ValueError(
                f"tier must be one of {TIERS}, got {self.tier!r}"
            )
        backends = backend_names()
        if self.backend not in backends:
            raise ValueError(
                f"backend must be one of {backends}, got {self.backend!r}"
            )

    @staticmethod
    def _normalize_count(name: str, value) -> int | str:
        """``"auto"`` or a positive int; digit strings become ints."""
        if value == "auto":
            return "auto"
        if isinstance(value, bool):
            raise ValueError(
                f"{name} must be a positive integer or 'auto', got {value!r}"
            )
        try:
            count = int(value)
        except (TypeError, ValueError):
            raise ValueError(
                f"{name} must be a positive integer or 'auto', got {value!r}"
            ) from None
        if count < 1:
            raise ValueError(f"{name} must be >= 1, got {count}")
        return count

