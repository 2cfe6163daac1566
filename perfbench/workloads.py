"""The four workloads: their inputs and their answer keys.

Every answer key comes from outside the verifier under test:

* ``corpus`` -- the paper's Section 7.3 result (and EXPERIMENTS.md):
  every group verifies without warnings, except that ``collections``
  gives exactly one ``nonexhaustive`` warning, inside TreeMap's
  ``balance`` method.  The method's line range is found in the source
  text, not taken from a report.
* ``trees`` -- the Fig. 13 group must never get a definitive warning;
  inconclusive results are allowed and lower ``decided_share``.
* ``generated`` and ``edit-loop`` -- the ground-truth manifest that
  ``repro.gen`` builds by construction (each method's expected warnings
  move with it when :func:`stratified` assembles the corpus), compared
  with ``repro.gen.check_report``; for ``edit-loop`` each edit's effect
  on that manifest is known by construction too (see
  :class:`EditScript`).

Keys work on report *documents* (the ``report`` objects of
``verify --format json``), which the CLI, the daemon and an in-process
``report.to_dict()`` all produce in the same shape.
"""

from __future__ import annotations

import os
import re
from dataclasses import asdict
from random import Random
from types import SimpleNamespace

#: the conclusive Table 1 groups, verified together in one CLI process
CORPUS_GROUPS = ("nat", "lists", "cps", "typeinf", "collections")
#: per-query budget for ``trees``: far below the 8 s default, yet every
#: budget from 0.25 s to 2 s leaves the same 16 queries inconclusive
TREES_BUDGET = 0.5
#: ``generated``: 400 methods in 4 files over 25 hierarchies each (the
#: generator's default is 3), stratified (see :func:`stratified`)
GENERATED = {"methods": 400, "methods_per_file": 100, "hierarchies": 25}
#: ``edit-loop``: 120 methods in 2 files over 10 hierarchies each,
#: stratified, behind a warm daemon
EDIT_LOOP = {"methods": 120, "methods_per_file": 60, "hierarchies": 10}
#: the seed whose layout, hierarchies and method strata every
#: stratified corpus keeps
REFERENCE_SEED = 0
#: one-method programs generated with the seed per method of a
#: stratified corpus
POOL_FACTOR = 8

INCONCLUSIVE = "verification-inconclusive"


def write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def obligations(report: dict) -> tuple[int, int]:
    """(all obligations, conclusive ones) of one report document.

    An obligation is an SMT query (cache hits included) or one the
    pattern-algebra tier discharged; unknown queries are undecided.
    """
    stats = report["solver_stats"]
    total = stats["total"]["queries"] + stats["algebra_discharged"]
    return total, total - stats["total"]["unknown"]


def _as_report(report: dict) -> SimpleNamespace:
    """A report document shaped like what ``check_report`` reads."""
    warnings = [
        SimpleNamespace(
            kind=SimpleNamespace(value=w["kind"]),
            span=SimpleNamespace(
                start=SimpleNamespace(line=w["line"], column=w["column"])
            ),
            message=w["message"],
        )
        for w in report["warnings"]
    ]
    return SimpleNamespace(diagnostics=SimpleNamespace(warnings=warnings))


def _method_lines(source: str, header: str) -> range:
    """Lines (1-based) of the top-level method whose header starts so."""
    lines = source.split("\n")
    start = next(i for i, line in enumerate(lines) if line.startswith(header))
    end = next(i for i in range(start + 1, len(lines)) if lines[i] == "}")
    return range(start + 1, end + 2)


class Inputs:
    """A workload's files on disk plus the key that checks their reports."""

    def __init__(self, paths: list[str], keys: dict):
        self.paths = paths
        #: path -> callable(report document) -> list of problems
        self.keys = keys

    def check(self, path: str, report: dict) -> list[str]:
        return self.keys[path](report)


def corpus_inputs(directory: str) -> Inputs:
    from repro.corpus import combined_programs

    programs = combined_programs()
    paths, keys = [], {}
    for group in CORPUS_GROUPS:
        path = os.path.join(directory, f"{group}.jm")
        write_text(path, programs[group])
        paths.append(path)
        if group == "collections":
            keys[path] = _balance_key(
                _method_lines(programs[group], "static RBTree balance(")
            )
        else:
            keys[path] = _clean_key
    return Inputs(paths, keys)


def _clean_key(report: dict) -> list[str]:
    return [f"unexpected warning: {w['kind']} line {w['line']}"
            for w in report["warnings"]]


def _balance_key(balance: range):
    def key(report: dict) -> list[str]:
        got = [(w["kind"], w["line"]) for w in report["warnings"]]
        if len(got) == 1 and got[0][0] == "nonexhaustive" \
                and got[0][1] in balance:
            return []
        return [f"expected one nonexhaustive warning in balance "
                f"(lines {balance.start}-{balance.stop - 1}), got {got}"]
    return key


def trees_inputs(directory: str) -> Inputs:
    from repro.corpus import combined_programs

    path = os.path.join(directory, "trees.jm")
    write_text(path, combined_programs()["trees"])
    return Inputs([path], {path: _no_definitive_key})


def _no_definitive_key(report: dict) -> list[str]:
    return [f"definitive warning: {w['kind']} line {w['line']}"
            for w in report["warnings"] if w["kind"] != INCONCLUSIVE]


def _manifest_key(expected: list[dict]):
    from repro.gen import check_report

    def key(report: dict) -> list[str]:
        return check_report(expected, _as_report(report))
    return key


def _generate(config: dict, seed: int) -> list:
    from repro.gen import GenConfig, generate_corpus

    return generate_corpus(GenConfig(seed=seed, **config)).files


def _methods(generated) -> tuple[list[str], list[tuple]]:
    """A generated file's lines before its first method, and its methods.

    A method is (stratum, index of its first line, its lines, its
    expected warnings, its hierarchy's index).  The stratum is what its
    verification cost mostly depends on: its hierarchy's constructor
    arities, its flavour (the generator's perturbation, read from the
    source and the expected warnings) and its arm count.
    """
    lines = generated.source.rstrip("\n").split("\n")
    starts = [i for i, line in enumerate(lines) if _HEADER.match(line)]
    arities: dict[str, list[int]] = {}
    for line in lines[:starts[0]]:
        # The interface's constructor declarations, not the class's.
        match = re.match(r"  constructor mk(\d+)_\d+\((.*)\) returns.*;$",
                         line)
        if match:
            arities.setdefault(match.group(1), []).append(
                match.group(2).count(" x"))
    warnings: dict[str, list] = {}
    for warning in generated.expected:
        warnings.setdefault(warning.method, []).append(warning)
    methods = []
    for start, end in zip(starts, starts[1:] + [len(lines)]):
        body = lines[start:end]
        name = _HEADER.match(body[0]).group(1)
        hierarchy = re.search(r"\(T(\d+) t,", body[0]).group(1)
        arms = [line for line in body if line.startswith("    case ")]
        expected = warnings.get(name, [])
        if expected:
            flavour = expected[0].kind
        elif any(" where (" in arm for arm in arms):
            flavour = "guard"
        elif "    default: return -1;" in body:
            flavour = "default"
        elif any(" | " in arm or " # " in arm for arm in arms):
            flavour = "or"
        else:
            flavour = "clean"
        stratum = (tuple(arities[hierarchy]), flavour, len(arms))
        methods.append((stratum, start, body, expected, hierarchy))
    return lines[:starts[0]], methods


def stratified(config: dict, seed: int) -> list[SimpleNamespace]:
    """A seeded ``repro.gen`` corpus whose cost varies little by seed.

    A plain generated corpus varies in verify time by +-25% from seed
    to seed at 250 methods: a tenth of the methods take 60% of the
    time, they share their file's few hierarchies, and how many costly
    ones a seed draws varies.  So the files keep the layout and the
    hierarchies of the corpus ``repro.gen`` makes for ``config`` with
    :data:`REFERENCE_SEED`, and every method in them is replaced by one
    drawn with the seed, of the same stratum (see :func:`_methods`):
    the first unused one among :data:`POOL_FACTOR` times as many
    one-method programs generated with the seed, each over a hierarchy
    of its own with the same constructor arities as the one it is moved
    onto.  Failing that, one over such a hierarchy of the same flavour,
    then any over such a hierarchy.  Patterns, perturbations and which
    arm is perturbed all come from the seed; the hierarchies and the
    mix of method kinds are held fixed.  A method's warnings depend
    only on its patterns and its hierarchy's arities, so they move with
    it, shifted to its new lines.

    Returns files with ``name``, ``source`` and ``expected`` (manifest
    dicts, in source order).
    """
    total = config["methods"]
    drawn = []
    for program in _generate(dict(
        config, methods=POOL_FACTOR * total, methods_per_file=1,
        hierarchies=1,
    ), seed):
        drawn += _methods(program)[1]
    files = _generate(config, REFERENCE_SEED)
    slots = [(f, i, method) for f, generated in enumerate(files)
             for i, method in enumerate(_methods(generated)[1])]
    chosen: dict[tuple, tuple] = {}
    for coarse in (3, 2, 1):
        free: dict[tuple, list] = {}
        for method in drawn:
            free.setdefault(method[0][:coarse], []).append(method)
        for slot in slots:
            if (slot[0], slot[1]) in chosen:
                continue
            left = free.get(slot[2][0][:coarse])
            if left:
                chosen[slot[0], slot[1]] = left.pop(0)
        taken = {id(method) for method in chosen.values()}
        drawn = [method for method in drawn if id(method) not in taken]
    out = []
    for f, generated in enumerate(files):
        head, methods = _methods(generated)
        lines = [f"// repro.gen methods, stratified by perfbench, "
                 f"seed={seed}"] + head[2:]
        expected = []
        for i, (_, _, body, _, hierarchy) in enumerate(methods):
            # A slot no drawn method fits keeps the reference method.
            _, start, new, warnings, old = chosen.get((f, i), methods[i])
            name = _HEADER.match(body[0]).group(1)
            text = re.sub(rf"\bT{old}\b", f"T{hierarchy}", "\n".join(new))
            text = re.sub(rf"\bmk{old}_", f"mk{hierarchy}_", text)
            text = _HEADER.sub(f"static int {name}(", text, count=1)
            expected += [dict(asdict(w), method=name,
                              line=w.line + len(lines) - start)
                         for w in warnings]
            lines += text.split("\n")
        out.append(SimpleNamespace(
            name=generated.name, source="\n".join(lines) + "\n",
            expected=expected,
        ))
    return out


def write_files(files: list[SimpleNamespace], directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    for generated in files:
        write_text(os.path.join(directory, generated.name), generated.source)


def generated_inputs(directory: str, seed: int) -> Inputs:
    files = stratified(GENERATED, seed)
    write_files(files, directory)
    paths, keys = [], {}
    for generated in files:
        path = os.path.join(directory, generated.name)
        paths.append(path)
        keys[path] = _manifest_key(generated.expected)
    return Inputs(paths, keys)


def cli_inputs(workload: str, directory: str, seed: int) -> Inputs:
    """The inputs of one of the CLI workloads, written to ``directory``."""
    if workload == "corpus":
        return corpus_inputs(directory)
    if workload == "trees":
        return trees_inputs(directory)
    return generated_inputs(directory, seed)


_HEADER = re.compile(r"^static int (\w+)\(")
#: the kinds of edit, in the order :class:`EditScript` repeats them
EDIT_CYCLE = ("rename", "delete", "rename", "restore")


class EditScript:
    """A seeded sequence of one-method edits with known expected warnings.

    Edits never change a file's line count, so every other method's
    declaration (spans included) and expected warnings stay put:

    * ``rename`` gives one method a fresh name -- verdict-neutral,
      because expected warnings are keyed by position and message;
    * ``delete`` replaces one arm of a clean method (no expected
      warning, no ``default``, guard or or-pattern) by a comment line:
      its rows were an exhaustive, irredundant partition, so exactly
      one ``nonexhaustive`` warning appears at its ``switch``;
    * ``restore`` puts the deleted arm back, and the manifest holds
      again.

    Every seed repeats the same cycle of kinds, :data:`EDIT_CYCLE`, so
    at most one arm is deleted at a time and the mix of kinds does not
    vary from seed to seed; the seed picks the methods and arms.
    """

    def __init__(self, directory: str, seed: int):
        files = stratified(EDIT_LOOP, seed)
        write_files(files, directory)
        self.rng = Random(seed)
        self.lines: dict[str, list[str]] = {}
        self.base: dict[str, list[dict]] = {}
        #: (path, header line index) of every method
        self.methods: list[tuple[str, int]] = []
        #: (path, switch line, arm count) of each clean method
        self.clean: list[tuple[str, int, int]] = []
        self.paths: list[str] = []
        for generated in files:
            path = os.path.join(directory, generated.name)
            self.paths.append(path)
            lines = generated.source.split("\n")
            self.lines[path] = lines
            expected = generated.expected
            self.base[path] = expected
            flagged = {w["line"] for w in expected}
            for i, line in enumerate(lines):
                if _HEADER.match(line):
                    self.methods.append((path, i))
                    self._classify(path, lines, i, flagged)
        self.renames = self.edits = 0
        #: (path, line index, original text, switch line) while deleted
        self.deleted: tuple[str, int, str, int] | None = None

    def _classify(self, path, lines, header, flagged) -> None:
        arms = []
        for line in lines[header + 2:]:
            if not line.startswith("    case "):
                if line.startswith("    default:"):
                    return
                break
            arms.append(line)
        # The switch follows the header, so its 1-based line number is
        # also the 0-based index of the first arm.
        switch_line = header + 2
        if switch_line in flagged or any(
            " where (" in arm or " | " in arm or " # " in arm for arm in arms
        ):
            return
        self.clean.append((path, switch_line, len(arms)))

    def expected(self, path: str) -> list[dict]:
        want = list(self.base[path])
        if self.deleted is not None and self.deleted[0] == path:
            want.append({
                "kind": "nonexhaustive", "line": self.deleted[3],
                "column": 3, "message": "match is not exhaustive",
            })
            want.sort(key=lambda w: (w["line"], w["column"]))
        return want

    def key(self, path: str):
        return _manifest_key(self.expected(path))

    def next_edit(self) -> tuple[str, str]:
        """Apply the next edit in memory; returns (path, edit kind)."""
        kind = EDIT_CYCLE[self.edits % len(EDIT_CYCLE)]
        self.edits += 1
        if kind == "restore":
            path, index, text, _ = self.deleted
            self.lines[path][index] = text
            self.deleted = None
            return path, "restore"
        if kind == "delete":
            path, switch_line, count = self.rng.choice(self.clean)
            index = switch_line + self.rng.randrange(count)
            lines = self.lines[path]
            self.deleted = (path, index, lines[index], switch_line)
            lines[index] = "    // arm removed"
            return path, "delete"
        path, header = self.rng.choice(self.methods)
        lines = self.lines[path]
        name = _HEADER.match(lines[header]).group(1)
        self.renames += 1
        fresh = f"{name.split('_')[0]}_{self.renames}"
        lines[header] = lines[header].replace(f" {name}(", f" {fresh}(", 1)
        return path, "rename"

    def write(self, path: str) -> None:
        write_text(path, "\n".join(self.lines[path]))
