"""``VerifyOptions``, the one configuration path, and the JSON report.

``api.verify`` takes its configuration only as a ``VerifyOptions``:
loose keywords and the removed ``incremental`` knob are rejected
loudly, out-of-range settings fail fast, and ``backend`` accepts every
registered name.  The report's machine-readable form
(``to_dict``/``to_json``) is exercised here too.
"""

import json

import pytest

from repro import api
from repro.api import VerifyOptions
from repro.smt.cache import SolverCache
from repro.verify.verifier import REPORT_SCHEMA_VERSION

PROGRAM = """
interface Nat {
  invariant(this = zero() | succ(_));
  constructor zero() matches(notall(result)) returns();
  constructor succ(Nat n) matches(notall(result)) returns(n);
}
static int f(Nat n) {
  switch (n) {
    case succ(Nat p): return 1;
  }
}
"""


@pytest.fixture(scope="module")
def unit():
    return api.compile_program(PROGRAM)


def _snapshot(report):
    return (
        [str(w) for w in report.diagnostics.warnings],
        report.methods_checked,
        report.statements_checked,
        report.clean,
    )


def test_defaults_are_identical(unit):
    assert _snapshot(api.verify(unit)) == _snapshot(
        api.verify(unit, options=VerifyOptions())
    )


def test_mixing_options_and_legacy_kwargs_raises(unit):
    with pytest.raises(TypeError, match="budget"):
        api.verify(unit, budget=2.0, options=VerifyOptions())


def test_loose_kwargs_to_api_verify_raise(unit):
    with pytest.raises(TypeError, match="budget"):
        api.verify(unit, budget=1.0)


def test_incremental_option_is_gone():
    with pytest.raises(TypeError, match="incremental"):
        VerifyOptions(incremental=False)


def test_options_fields_mirror_legacy_defaults():
    from repro.smt.cache import GLOBAL_CACHE

    opts = VerifyOptions()
    assert opts.budget is None
    assert opts.cache is GLOBAL_CACHE
    assert opts.jobs == 1
    assert opts.cache_dir is None
    assert opts.task_timeout is None
    assert opts.trace is None
    assert opts.tracer is None
    assert opts.format == "text"
    assert opts.backend == "incremental"
    assert opts.use_cache is True
    assert opts.trace_enabled is False


def test_replace_returns_a_modified_copy():
    opts = VerifyOptions()
    other = opts.replace(jobs=4)
    assert other.jobs == 4 and opts.jobs == 1


@pytest.mark.parametrize(
    "bad",
    [
        {"budget": -1.0},
        {"task_timeout": 0.0},
        {"jobs": 0},
        {"jobs": "many"},
        {"format": "xml"},
    ],
)
def test_validate_rejects_out_of_range_settings(bad):
    with pytest.raises(ValueError):
        VerifyOptions(**bad).validate()


def test_validate_accepts_auto_jobs_and_zero_budget():
    VerifyOptions(jobs="auto", budget=0.0).validate()


def test_validate_normalizes_numeric_strings_in_place():
    # config files and CLIs hand over strings; after validate() the
    # drivers must never see jobs="3" again
    opts = VerifyOptions(jobs="3", batch_size="8")
    opts.validate()
    assert opts.jobs == 3 and type(opts.jobs) is int
    assert opts.batch_size == 8 and type(opts.batch_size) is int


def test_validate_keeps_auto_and_ints_as_is():
    opts = VerifyOptions(jobs="auto", batch_size=4)
    opts.validate()
    assert opts.jobs == "auto"
    assert opts.batch_size == 4


@pytest.mark.parametrize("bad", [
    {"jobs": True},
    {"jobs": False},
    {"batch_size": True},
])
def test_validate_rejects_booleans(bad):
    # bool subclasses int, so int(True) == 1 would slip through as a
    # silent typo; reject it loudly instead
    with pytest.raises(ValueError, match="positive integer or 'auto'"):
        VerifyOptions(**bad).validate()


def test_incremental_flag_is_threaded(unit):
    """The cmd_verify bug: the engine choice must actually reach the
    session (historically the CLI never passed it); the non-incremental
    ``reference`` engine gives the same report."""
    on = api.verify(unit, options=VerifyOptions(backend="incremental"))
    off = api.verify(unit, options=VerifyOptions(backend="reference"))
    assert _snapshot(on) == _snapshot(off)
    assert set(off.solver_stats.per_backend) == {"reference"}


# -- backend selection ----------------------------------------------------


def test_validate_rejects_unknown_backend():
    for backend in ("cvc5", "portfolio", None):
        with pytest.raises(ValueError, match="backend must be one of"):
            VerifyOptions(backend=backend).validate()


def test_api_verify_backend_kwarg_is_threaded(unit):
    baseline = api.verify(unit, options=VerifyOptions(cache=None))
    for backend in ("reference", "incremental"):
        report = api.verify(
            unit, options=VerifyOptions(cache=None, backend=backend)
        )
        assert _snapshot(report) == _snapshot(baseline)
        assert set(report.solver_stats.per_backend) == {backend}


def test_registered_backend_verifies_a_corpus_group():
    """``register_backend`` makes a name valid everywhere ``backend``
    is read, not only in the registry."""
    from repro.corpus import combined_programs
    from repro.smt.backend import ReferenceBackend, _REGISTRY

    class Mine(ReferenceBackend):
        name = "mine"

    unit = api.compile_program(combined_programs()["lists"])
    baseline = api.verify(
        unit, options=VerifyOptions(cache=None, backend="reference")
    )
    api.register_backend("mine", Mine)
    try:
        report = api.verify(
            unit, options=VerifyOptions(cache=None, backend="mine", jobs=1)
        )
    finally:
        del _REGISTRY["mine"]
    assert _snapshot(report) == _snapshot(baseline)
    assert set(report.solver_stats.per_backend) == {"mine"}


def test_api_exports_the_backend_registry():
    assert "SolverBackend" in api.__all__
    assert set(api.backend_names()) >= {"incremental", "reference", "z3"}
    assert {"incremental", "reference"} <= set(api.available_backends())


# -- the machine-readable report -----------------------------------------


def test_report_to_dict_shape(unit):
    report = api.verify(unit, options=api.VerifyOptions(cache=SolverCache()))
    data = report.to_dict()
    assert data["schema"] == REPORT_SCHEMA_VERSION
    assert data["clean"] is False
    assert data["methods_checked"] == report.methods_checked
    assert data["statements_checked"] == report.statements_checked
    assert data["tasks"] == {"retried": 0, "timed_out": 0, "failed": 0}
    assert len(data["warnings"]) == len(report.diagnostics.warnings)
    first = data["warnings"][0]
    assert set(first) == {
        "kind", "message", "file", "line", "column",
        "end_line", "end_column", "counterexample",
    }
    assert first["line"] > 0
    assert sum(data["warning_counts"].values()) == len(data["warnings"])
    assert data["solver_stats"]["total"]["queries"] > 0


def test_report_to_json_roundtrips(unit):
    report = api.verify(unit, options=api.VerifyOptions(cache=SolverCache()))
    assert json.loads(report.to_json()) == report.to_dict()
    assert json.loads(report.to_json(indent=2)) == report.to_dict()


def test_warning_order_matches_text_output(unit):
    report = api.verify(unit, options=api.VerifyOptions(cache=SolverCache()))
    texts = [str(w) for w in report.diagnostics.warnings]
    dicts = report.to_dict()["warnings"]
    assert [d["message"] for d in dicts] == [
        w.message for w in report.diagnostics.warnings
    ]
    assert len(texts) == len(dicts)
