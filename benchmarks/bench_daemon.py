"""The daemon's warm-path payoff: cold CLI vs warm re-verification.

``repro verify`` pays the whole pipeline on every invocation:
interpreter startup, compile, and every SMT obligation from
scratch.  ``repro serve`` holds that state between
requests and adds the dependency index, so a re-verify of an unchanged
file replays cached task outcomes (``dep-hit``) instead of re-running
them.  This benchmark measures exactly that contract on a generated
corpus (:mod:`repro.gen`) with ground-truth manifests:

* **cold CLI** — one fresh ``python -m repro.cli verify`` subprocess
  over the corpus, memory-cache only (the honest cost an editor
  integration pays per keystroke without a daemon);
* **daemon cold** — the first ``verify`` request to a freshly spawned
  daemon: same work plus protocol overhead (every task is a dep-miss);
* **daemon warm** — the identical request again: the unchanged files
  are not recompiled, and every task replays its outcome (zero
  dep-misses).  The floor demands warm >= 2x
  faster than the cold CLI;
* **daemon edit** — one method's parameter is renamed in place (the
  line count is preserved, so no other declaration's spans move), then
  the file set is re-verified: the dependency index must re-run under
  20% of the corpus's obligations, and the resulting reports must match
  a fresh CLI pass over the edited corpus (timings and the driver
  decision string normalized away — every verdict byte identical).

Every daemon report is also diffed against the generator's manifest,
and the run ends with a clean ``shutdown`` (socket file gone) —
``test_bench_daemon.py`` asserts all of it from ``BENCH_daemon.json``.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")
if REPO_SRC not in sys.path:
    sys.path.insert(0, REPO_SRC)

from repro.gen.generator import GenConfig, generate_corpus, write_corpus
from repro.verify.daemon import DaemonClient, ensure_daemon

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_daemon.json"

#: corpus shape: small enough for CI, large enough that one method is
#: well under 20% of the obligations
METHODS = 60
METHODS_PER_FILE = 30
SEED = 11


def _subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["REPRO_CACHE_DIR"] = ""  # memory tier only, both sides
    return env


def cli_verify(paths: list[str]) -> tuple[float, dict]:
    """One cold ``repro verify`` subprocess; (wall seconds, JSON doc)."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "verify", "--format", "json",
         "--no-cache", *paths],
        capture_output=True,
        text=True,
        env=_subprocess_env(),
    )
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        raise AssertionError(
            f"cold CLI verify failed ({proc.returncode}): {proc.stderr}"
        )
    return seconds, json.loads(proc.stdout)


def _normalize(report: dict) -> dict:
    """Drop what legitimately differs between runs of the same work:
    wall-clock timings and the driver-decision string."""
    document = json.loads(json.dumps(report))

    def zero(node):
        if isinstance(node, dict):
            for key, value in node.items():
                if key == "seconds" or key.endswith("_s"):
                    node[key] = 0.0
                else:
                    zero(value)
        elif isinstance(node, list):
            for item in node:
                zero(item)

    zero(document)
    document["solver_stats"]["parallel_decision"] = ""
    return document


def _check_manifest(manifest: dict, corpus_dir: str, files: list[dict]):
    """Mismatch lines between the manifest and the daemon's reports."""
    expected_by_path = {
        os.path.join(corpus_dir, f["path"]): f["warnings"]
        for f in manifest["files"]
    }
    problems = []
    for entry in files:
        want = [
            (w["kind"], w["line"], w["column"], w["message"])
            for w in expected_by_path[entry["path"]]
        ]
        got = [
            (w["kind"], w["line"], w["column"], w["message"])
            for w in entry["report"]["warnings"]
        ]
        if want != got:
            problems.append(f"{entry['path']}: expected {want}, got {got}")
    return problems


def _edit_one_method(corpus_dir: str, file_name: str) -> str:
    """Rename one parameter of the file's first method, in place.

    The edit keeps the line count (so no other declaration's spans
    move) and does not change any verdict (generated bodies never read
    ``k``) — exactly the minimal-invalidation case the dependency
    index exists for.  Returns the edited method's name.
    """
    path = os.path.join(corpus_dir, file_name)
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines(keepends=True)
    for index, line in enumerate(lines):
        if line.startswith("static int m") and "int k)" in line:
            method = line.split("(")[0].split()[-1]
            lines[index] = line.replace("int k)", "int kq)", 1)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("".join(lines))
            return method
    raise AssertionError(f"no editable method found in {file_name}")


def run_bench() -> dict:
    with tempfile.TemporaryDirectory(prefix="bench-daemon-") as tmp:
        corpus_dir = os.path.join(tmp, "corpus")
        corpus = generate_corpus(
            GenConfig(
                methods=METHODS, seed=SEED,
                methods_per_file=METHODS_PER_FILE,
            )
        )
        write_corpus(corpus, corpus_dir)
        manifest = corpus.manifest()
        paths = [
            os.path.join(corpus_dir, f["path"]) for f in manifest["files"]
        ]

        cold_cli_s, cli_doc = cli_verify(paths)

        socket_path = os.path.join(
            tempfile.gettempdir(), f"repro-bench-{os.getpid()}.sock"
        )
        os.environ.pop("REPRO_DAEMON_SOCKET", None)
        client = ensure_daemon(socket_path=socket_path)
        # SMT-cache off on both sides: every lane then measures (and the
        # byte-identity checks compare) exactly what the daemon adds —
        # dependency-indexed outcome replay — with per-task solver
        # counters deterministic and equal between daemon and CLI.
        options = {"use_cache": False}
        try:
            start = time.perf_counter()
            cold = client.verify(paths, options)
            daemon_cold_s = time.perf_counter() - start

            start = time.perf_counter()
            warm = client.verify(paths, options)
            daemon_warm_s = time.perf_counter() - start

            manifest_problems = _check_manifest(
                manifest, corpus_dir, cold["files"]
            )
            cold_matches_cli = [
                _normalize(e["report"]) for e in cli_doc["files"]
            ] == [_normalize(e["report"]) for e in cold["files"]]

            edited_method = _edit_one_method(
                corpus_dir, manifest["files"][0]["path"]
            )
            start = time.perf_counter()
            edited = client.verify(paths, options)
            daemon_edit_s = time.perf_counter() - start
            edit_total = edited["dep_hits"] + edited["dep_misses"]

            _, edited_cli_doc = cli_verify(paths)
            edit_matches_cli = [
                _normalize(e["report"]) for e in edited_cli_doc["files"]
            ] == [_normalize(e["report"]) for e in edited["files"]]

            client.shutdown()
        finally:
            client.close()
        deadline = time.monotonic() + 10.0
        while os.path.exists(socket_path) and time.monotonic() < deadline:
            time.sleep(0.05)
        clean_shutdown = not os.path.exists(socket_path)

    return {
        "benchmark": "bench_daemon",
        "schema_version": 1,
        "date": time.strftime("%Y-%m-%d"),
        "python": platform.python_version(),
        "methods": METHODS,
        "files": len(paths),
        "tasks": cold["dep_misses"],
        "expected_warnings": manifest["expected_warnings"],
        "cold_cli_s": round(cold_cli_s, 4),
        "daemon_cold_s": round(daemon_cold_s, 4),
        "daemon_warm_s": round(daemon_warm_s, 4),
        "daemon_edit_s": round(daemon_edit_s, 4),
        "speedup_warm_vs_cold_cli": round(cold_cli_s / daemon_warm_s, 2),
        "speedup_edit_vs_cold_cli": round(cold_cli_s / daemon_edit_s, 2),
        "cold_dep_misses": cold["dep_misses"],
        "warm_dep_hits": warm["dep_hits"],
        "warm_dep_misses": warm["dep_misses"],
        "edited_method": edited_method,
        "edit_dep_misses": edited["dep_misses"],
        "edit_reverify_fraction": round(
            edited["dep_misses"] / edit_total, 4
        ),
        "manifest_problems": manifest_problems,
        "cold_report_matches_cli": cold_matches_cli,
        "edit_report_matches_cli": edit_matches_cli,
        "clean_shutdown": clean_shutdown,
    }


def main(out_path: Path = OUT_PATH) -> dict:
    results = run_bench()
    out_path.write_text(json.dumps(results, indent=2) + "\n")
    print(json.dumps(results, indent=2))
    return results


if __name__ == "__main__":
    sys.exit(0 if main() else 1)
