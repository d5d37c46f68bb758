"""File discovery, two-pass rule dispatch, suppression filtering.

Pass 1 parses each file once into a
:class:`~repro.checks.context.ModuleContext`, runs every selected
per-file rule, and boils the AST down to a
:class:`~repro.checks.concurrency.ModuleSummary`. Pass 2 merges the
summaries into a
:class:`~repro.checks.concurrency.ProjectIndex` and runs the
project-wide rules (SIM005/SIM006) over it.

``index_paths`` name files that join the project index — feeding
method resolution, thread seeds, and SIM006's twin-test evidence —
without being checked themselves: findings never anchor on them.
The CLI indexes ``tests/`` automatically for this reason.

Files that fail to parse are reported as errors, never swallowed —
the CI smoke that "the checker parses everything under ``src/``" is
just a run whose error list must stay empty.

With ``strict_suppressions``, every ``# repro-check: disable=RULE``
directive that suppressed nothing (for a rule that actually ran) is
itself reported as a SUP001 finding, so suppressions can't outlive
the code they excused.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.checks.concurrency import (ModuleSummary, ProjectIndex,
                                      build_summary)
from repro.checks.context import ModuleContext
from repro.checks.findings import Finding
from repro.checks.rules import PROJECT_RULES, RULES

#: Engine-generated rule id for stale suppression directives
#: (``--strict-suppressions``); not in any registry, never selectable.
STALE_SUPPRESSION_RULE = "SUP001"


@dataclass(frozen=True)
class ParseError:
    """One file the checker could not parse."""

    path: str
    message: str

    def render(self) -> str:
        return f"{self.path}: PARSE {self.message}"

    def to_dict(self) -> dict:
        return {"path": self.path, "message": self.message}


@dataclass
class CheckReport:
    """Outcome of one engine run over a set of files."""

    findings: list[Finding] = field(default_factory=list)
    errors: list[ParseError] = field(default_factory=list)
    files: int = 0
    suppressed: int = 0
    #: index-only files parsed for the project index (not checked).
    indexed: int = 0

    def extend(self, other: "CheckReport") -> None:
        self.findings.extend(other.findings)
        self.errors.extend(other.errors)
        self.files += other.files
        self.suppressed += other.suppressed
        self.indexed += other.indexed


def iter_python_files(paths: Iterable[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files,
    skipping hidden directories and ``__pycache__``."""
    out: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                relative = candidate.relative_to(path).parts
                if any(part == "__pycache__" or part.startswith(".")
                       for part in relative):
                    continue
                out.append(candidate)
        else:
            out.append(path)
    return out


def display_path(path: str | Path) -> str:
    """Stable, cwd-relative POSIX path for reports and fingerprints."""
    path = Path(path)
    try:
        path = path.resolve().relative_to(Path.cwd().resolve())
    except ValueError:
        pass
    return path.as_posix()


def _selected_rules(rules: Sequence[str] | None):
    """(per-file rules, project rules) for a ``--select`` list."""
    if rules is None:
        return list(RULES.values()), list(PROJECT_RULES.values())
    known = set(RULES) | set(PROJECT_RULES)
    unknown = [r for r in rules if r not in known]
    if unknown:
        raise KeyError(f"unknown rule(s) {unknown}; "
                       f"known: {sorted(known)}")
    return ([RULES[r] for r in rules if r in RULES],
            [PROJECT_RULES[r] for r in rules if r in PROJECT_RULES])


def _match_suppression(suppressions, file_suppressions,
                       finding: Finding):
    """The (line, token) that suppresses ``finding``, or None.

    Line 0 stands for a file-level ``disable-file=`` directive."""
    line_rules = suppressions.get(finding.line, ())
    rule = finding.rule.upper()
    if rule in line_rules:
        return (finding.line, rule)
    if "ALL" in line_rules:
        return (finding.line, "ALL")
    if rule in file_suppressions:
        return (0, rule)
    if "ALL" in file_suppressions:
        return (0, "ALL")
    return None


@dataclass
class FileOutcome:
    """Everything pass 1 learned about one file."""

    report: CheckReport
    summary: ModuleSummary | None = None
    #: (line, token) suppression directives that matched a finding.
    used: list = field(default_factory=list)


def _analyze_source(source: str, path: str,
                    rule_names: tuple | None,
                    index_only: bool = False) -> FileOutcome:
    """Pass 1 for one in-memory blob: per-file rules + summary."""
    report = CheckReport(files=0 if index_only else 1,
                         indexed=1 if index_only else 0)
    try:
        ctx = ModuleContext.parse(source, path)
    except SyntaxError as exc:
        report.errors.append(ParseError(
            path=path, message=f"{exc.msg} (line {exc.lineno})"))
        return FileOutcome(report=report)
    file_rules, _ = _selected_rules(rule_names)
    used: list = []
    if not index_only:
        for rule in file_rules:
            for finding in rule.check(ctx):
                hit = _match_suppression(ctx.suppressions,
                                         ctx.file_suppressions, finding)
                if hit is not None:
                    report.suppressed += 1
                    used.append(hit)
                else:
                    report.findings.append(finding)
    report.findings.sort()
    summary = build_summary(ctx.tree, path,
                            suppressions=ctx.suppressions,
                            file_suppressions=ctx.file_suppressions,
                            index_only=index_only)
    return FileOutcome(report=report, summary=summary, used=used)


def _analyze_path(path: Path, rule_names: tuple[str, ...] | None,
                  index_only: bool) -> FileOutcome:
    """Pass 1 over one file on disk (read errors become ParseErrors)."""
    shown = display_path(path)
    try:
        source = path.read_text(encoding="utf-8")
    except OSError as exc:
        report = CheckReport(files=0 if index_only else 1,
                             indexed=1 if index_only else 0)
        report.errors.append(ParseError(path=shown, message=str(exc)))
        return FileOutcome(report=report)
    return _analyze_source(source, shown, rule_names,
                           index_only=index_only)


def _run_project_rules(report: CheckReport,
                       outcomes: list[FileOutcome],
                       project_rules,
                       used_by_path: dict) -> None:
    """Pass 2: project rules over the merged index, suppression-aware."""
    summaries = [o.summary for o in outcomes if o.summary is not None]
    if not summaries or not project_rules:
        return
    project = ProjectIndex(summaries)
    for rule in project_rules:
        for finding in rule.check_project(project):
            suppressions, file_suppressions = project.directives_for(
                finding.path)
            hit = _match_suppression(suppressions, file_suppressions,
                                     finding)
            if hit is not None:
                report.suppressed += 1
                used_by_path.setdefault(finding.path, set()).add(hit)
            else:
                report.findings.append(finding)


def _stale_suppression_findings(outcomes: list[FileOutcome],
                                used_by_path: dict,
                                active_rules: set) -> list[Finding]:
    """SUP001 findings for directives that suppressed nothing.

    Only rule tokens that actually ran count — ``--select SIM005``
    must not declare every SIM001 suppression stale. ``ALL`` tokens
    are stale when no finding at all was suppressed there."""
    findings: list[Finding] = []
    for outcome in outcomes:
        summary = outcome.summary
        if summary is None or summary.index_only:
            continue
        used = used_by_path.get(summary.path, set())
        for line, tokens in sorted(summary.suppressions.items()):
            for token in tokens:
                if token != "ALL" and token not in active_rules:
                    continue
                if (line, token) in used:
                    continue
                if token == "ALL" and any(l == line for l, _ in used):
                    continue
                findings.append(Finding(
                    path=summary.path, line=line, col=0,
                    rule=STALE_SUPPRESSION_RULE,
                    key=f"stale:{token}@{line}",
                    message=f"suppression disable={token} on line "
                            f"{line} matched no finding — remove it "
                            "or fix the annotation"))
        for token in summary.file_suppressions:
            if token != "ALL" and token not in active_rules:
                continue
            if (0, token) in used:
                continue
            if token == "ALL" and any(l == 0 for l, _ in used):
                continue
            findings.append(Finding(
                path=summary.path, line=1, col=0,
                rule=STALE_SUPPRESSION_RULE,
                key=f"stale:disable-file={token}",
                message=f"file-level suppression disable-file={token} "
                        "matched no finding — remove it or fix the "
                        "annotation"))
    return findings


def _finalize(report: CheckReport, outcomes: list[FileOutcome],
              project_rules, active_rules: set,
              strict_suppressions: bool) -> CheckReport:
    used_by_path: dict = {}
    for outcome in outcomes:
        if outcome.summary is not None and outcome.used:
            used_by_path.setdefault(
                outcome.summary.path, set()).update(outcome.used)
    _run_project_rules(report, outcomes, project_rules, used_by_path)
    if strict_suppressions:
        report.findings.extend(_stale_suppression_findings(
            outcomes, used_by_path, active_rules))
    report.findings.sort()
    return report


def check_source(source: str, path: str,
                 rules: Sequence[str] | None = None,
                 index_sources: dict | None = None,
                 strict_suppressions: bool = False) -> CheckReport:
    """Run rules over one in-memory source blob (plus optional
    index-only companions, for twin-test evidence in tests)."""
    rule_names = tuple(rules) if rules is not None else None
    _, project_rules = _selected_rules(rule_names)
    outcome = _analyze_source(source, path, rule_names)
    report = outcome.report
    outcomes = [outcome]
    for extra_path, extra_source in sorted(
            (index_sources or {}).items()):
        extra = _analyze_source(extra_source, extra_path, rule_names,
                                index_only=True)
        report.extend(extra.report)
        outcomes.append(extra)
    active = {r.rule_id for r in _selected_rules(rule_names)[0]}
    active |= {r.rule_id for r in project_rules}
    return _finalize(report, outcomes, project_rules, active,
                     strict_suppressions)


def check_file(path: str | Path,
               rules: Sequence[str] | None = None) -> CheckReport:
    path = Path(path)
    shown = display_path(path)
    try:
        source = path.read_text(encoding="utf-8")
    except OSError as exc:
        report = CheckReport(files=1)
        report.errors.append(ParseError(path=shown, message=str(exc)))
        return report
    return check_source(source, shown, rules=rules)


def run_checks(paths: Iterable[str | Path],
               rules: Sequence[str] | None = None,
               index_paths: Iterable[str | Path] = (),
               strict_suppressions: bool = False) -> CheckReport:
    """Check every python file under ``paths``.

    ``index_paths`` files join the cross-module index without being
    checked."""
    rule_names = tuple(rules) if rules is not None else None
    file_rules, project_rules = _selected_rules(rule_names)
    checked = iter_python_files(paths)
    checked_set = {p.resolve() for p in checked}
    index_only = [p for p in iter_python_files(index_paths)
                  if p.resolve() not in checked_set]
    outcomes = ([_analyze_path(p, rule_names, False) for p in checked]
                + [_analyze_path(p, rule_names, True)
                   for p in index_only])
    report = CheckReport()
    for outcome in outcomes:
        report.extend(outcome.report)
    active = {r.rule_id for r in file_rules}
    active |= {r.rule_id for r in project_rules}
    return _finalize(report, outcomes, project_rules, active,
                     strict_suppressions)
