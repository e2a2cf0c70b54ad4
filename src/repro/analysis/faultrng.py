"""R008: fault-path RNG isolation — keyed draws only near faults.

The fault injector (:mod:`repro.serve.faults`) promises that any
fleet loop dispatching the same jobs at the same times — the
simulator, its vectorized first-attempt table, a reference loop —
makes *identical* failure decisions, whatever its internal order.
That only holds because every stochastic choice is a pure keyed hash
of ``(seed, job_id, attempt, stream)`` — there is no generator object
whose output depends on how many draws happened before.

A single stateful RNG call anywhere on the fault path silently breaks
that contract: two loops would consume the stream in different
orders and diverge.  This rule therefore bans *all* RNG
machinery — not just the unseeded kind R004 already flags — from any
module that imports :mod:`repro.serve.faults` (and from ``faults.py``
itself):

* ``np.random.<anything>`` — including seeded ``default_rng(...)`` /
  ``Generator`` construction, which R004 permits elsewhere;
* stdlib ``random.<fn>`` calls and ``random.Random(...)``
  construction, seeded or not;
* bare ``default_rng(...)`` imported from ``numpy.random``.

Trace *generation* (:mod:`repro.serve.job`) rightly uses a seeded
``default_rng`` — it runs once, before the simulator — and stays
legal because it does not import the faults module.  Test files are
not linted.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Finding, Module, Project, Rule, register

#: The module whose importers are held to keyed-draw discipline.
_FAULTS_MODULE = "repro.serve.faults"

_HINT = ("derive the value from a keyed hash instead "
         "(repro.serve.faults._keyed_uniform) so every loop "
         "draws it identically regardless of call order")


def _dotted(node: ast.expr) -> list[str]:
    """Attribute chain as names, e.g. ``np.random.rand`` -> [np,random,rand]."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return list(reversed(parts))
    return []


def _on_fault_path(module: Module) -> bool:
    """True for ``faults.py`` itself and any module importing it."""
    if module.rel.replace("\\", "/").endswith("repro/serve/faults.py"):
        return True
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            if any(alias.name == _FAULTS_MODULE for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            if node.module == _FAULTS_MODULE:
                return True
            # from repro.serve import faults
            if node.module == "repro.serve" and any(
                    alias.name == "faults" for alias in node.names):
                return True
    return False


@register
class FaultPathRNGRule(Rule):
    """Flag any RNG use in modules on the fault path."""

    rule_id = "R008"
    title = "fault-path RNG isolation (keyed draws only)"

    def check(self, project: Project) -> Iterator[Finding]:
        for module in project.modules:
            if not _on_fault_path(module):
                continue
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                message = self._check_call(_dotted(node.func))
                if message is not None:
                    yield Finding(
                        rule_id=self.rule_id, path=module.rel,
                        line=node.lineno, message=message, hint=_HINT)

    def _check_call(self, chain: list[str]) -> str | None:
        if not chain:
            return None
        name = ".".join(chain)
        if len(chain) >= 2 and chain[0] in ("np", "numpy") \
                and chain[1] == "random":
            return (f"'{name}' on the fault path: stateful RNG breaks "
                    "scalar/streaming decision-identity")
        if len(chain) == 2 and chain[0] == "random":
            return (f"'{name}' on the fault path: stateful RNG breaks "
                    "scalar/streaming decision-identity")
        if chain == ["default_rng"]:
            return ("'default_rng' on the fault path: stateful RNG "
                    "breaks scalar/streaming decision-identity")
        return None
