"""SIM006 — vectorized/scalar twin conformance.

PR 8 split every hot path into a vectorized entry point and a scalar
oracle, bit-identical by construction. That guarantee only holds
while both sides exist and a twin test proves the identity — so this
rule makes the pairing structural:

* every class defining a vectorized entry point must keep its scalar
  oracle in the same class (or as a module-level function); and
* some test module must reference the class together with both twin
  names — the "bit-identity twin test" — so optimizing one side
  without re-proving the identity fails the gate.

The twin table mirrors the repo's actual batch seams. Backends toggle
``_step_batched``/``_step_scalar`` via a flag, and their twin test
(``make_twins``) references the flag rather than the private method
names, so flags are accepted as equivalent evidence.

The test-evidence check only fires when at least one test module was
indexed (the CLI auto-indexes ``tests/``; engine
``index_paths``): a bare single-file run can prove oracle presence
but cannot see the test tree, and must not cry wolf.
"""

from __future__ import annotations

from typing import Iterable

from repro.checks.concurrency import ProjectIndex
from repro.checks.findings import Finding
from repro.checks.rules import ProjectRule, register_project

#: vectorized entry point -> its scalar oracle.
TWIN_ORACLES = {
    "batch_step": "step",
    "offer_batch": "offer",
    "route_tokens": "route_flow",
    "generate_batch": "generate",
    "_step_batched": "_step_scalar",
}

#: Accepted twin-test evidence aliases per vectorized name: the
#: backend twin test toggles twins through these constructor flags.
TWIN_ALIASES = {
    "_step_batched": ("batch_step", "batch_admission"),
}


@register_project
class TwinConformance(ProjectRule):
    rule_id = "SIM006"
    summary = ("vectorized twins: scalar oracle present and a twin "
               "test references both")

    def check_project(self, project: ProjectIndex) -> Iterable[Finding]:
        findings: list[Finding] = []
        have_tests = bool(project.test_modules)
        for mod in project.modules:
            if mod.is_test or mod.index_only:
                continue
            for cls in mod.classes:
                for vec, oracle in TWIN_ORACLES.items():
                    if vec not in cls.methods:
                        continue
                    method = cls.methods[vec]
                    if (oracle not in cls.methods
                            and oracle not in mod.functions):
                        findings.append(Finding(
                            path=mod.path, line=method.line,
                            col=method.col, rule=self.rule_id,
                            key=f"{cls.name}.{vec}:oracle",
                            message=f"vectorized entry point "
                                    f"{cls.name}.{vec}() has no "
                                    f"scalar oracle {oracle}() in the "
                                    "same class or module — the twin "
                                    "pair must stay together"))
                        continue
                    if have_tests and not self._has_twin_test(
                            project, cls.name, vec, oracle):
                        wanted = [vec, oracle]
                        aliases = TWIN_ALIASES.get(vec)
                        hint = (f" (or the {'/'.join(aliases)} toggle)"
                                if aliases else "")
                        findings.append(Finding(
                            path=mod.path, line=method.line,
                            col=method.col, rule=self.rule_id,
                            key=f"{cls.name}.{vec}:twin-test",
                            message=f"no twin test found for "
                                    f"{cls.name}.{vec}(): no test "
                                    f"module references {cls.name} "
                                    f"together with "
                                    f"{' and '.join(wanted)}{hint} — "
                                    "add a bit-identity test driving "
                                    "both twins"))
        return sorted(findings)

    def _has_twin_test(self, project: ProjectIndex, cls_name: str,
                       vec: str, oracle: str) -> bool:
        aliases = TWIN_ALIASES.get(vec, ())
        for test in project.test_modules:
            if cls_name not in test.names:
                continue
            if vec in test.names and oracle in test.names:
                return True
            if any(alias in test.names for alias in aliases):
                return True
        return False
