"""R005: oracle-guard — closed-form engines keep the scalar oracle alive.

Every engine sets :attr:`GemmEngine.grid_axes` and is priced by the
closed form (:func:`~repro.arch.engine.gemm_stats_batch`), which is only
trustworthy while the per-tile scalar reference stays implemented: it is
the oracle the closed form is pinned against.  For every class assigning
a non-``None`` ``grid_axes`` this rule requires *real* implementations —
in the class body or inherited from a project base — of both method
families:

* the scalar reference trio ``tiles`` / ``tile_cycle_phases`` /
  ``tile_sram_traffic``;
* the vectorized hooks ``tile_phases_batch`` / ``tile_traffic_batch``.

A method is *not* an implementation when it is ``@abstractmethod``,
only raises ``NotImplementedError``, or only ``return None``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Finding, Project, Rule, register

#: Scalar reference path every closed-form engine must keep reachable.
REFERENCE_METHODS = ("tiles", "tile_cycle_phases", "tile_sram_traffic")

#: Vectorized hooks the closed form evaluates per tile-shape class.
CLOSED_FORM_METHODS = ("tile_phases_batch", "tile_traffic_batch")


def _grid_axes_value(node: ast.ClassDef) -> tuple[ast.stmt, bool] | None:
    """(assignment stmt, is_non_none) for a ``grid_axes`` class attr."""
    for stmt in node.body:
        target = None
        value = None
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target, value = stmt.targets[0], stmt.value
        elif isinstance(stmt, ast.AnnAssign):
            target, value = stmt.target, stmt.value
        if isinstance(target, ast.Name) and target.id == "grid_axes":
            is_none = (isinstance(value, ast.Constant)
                       and value.value is None)
            return stmt, not is_none and value is not None
    return None


def _is_stub(node: ast.FunctionDef) -> bool:
    """True for abstract/raise-only/return-None-only method bodies."""
    for dec in node.decorator_list:
        name = dec.attr if isinstance(dec, ast.Attribute) else (
            dec.id if isinstance(dec, ast.Name) else None)
        if name in ("abstractmethod", "abstractproperty"):
            return True
    body = list(node.body)
    if body and isinstance(body[0], ast.Expr) \
            and isinstance(body[0].value, ast.Constant) \
            and isinstance(body[0].value.value, str):
        body = body[1:]  # docstring
    if not body:
        return True
    if len(body) == 1:
        stmt = body[0]
        if isinstance(stmt, ast.Pass):
            return True
        if isinstance(stmt, ast.Raise):
            exc = stmt.exc
            if isinstance(exc, ast.Call):
                exc = exc.func
            if isinstance(exc, ast.Name) \
                    and exc.id == "NotImplementedError":
                return True
        if isinstance(stmt, ast.Return) and (
                stmt.value is None
                or (isinstance(stmt.value, ast.Constant)
                    and stmt.value.value is None)):
            return True
    return False


@register
class OracleGuardRule(Rule):
    """Closed-form engines must keep the scalar oracle + hooks implemented."""

    rule_id = "R005"
    title = "oracle-guard (scalar oracle reachable)"

    def check(self, project: Project) -> Iterator[Finding]:
        classes = {node.name: node
                   for _, node in project.iter_classes()}
        for module, node in project.iter_classes():
            info = _grid_axes_value(node)
            if info is None or not info[1]:
                continue
            implemented = self._implemented_methods(node, classes)
            for family, methods in (
                    ("scalar reference", REFERENCE_METHODS),
                    ("closed-form hook", CLOSED_FORM_METHODS)):
                for method in methods:
                    if method in implemented:
                        continue
                    yield Finding(
                        rule_id=self.rule_id, path=module.rel,
                        line=node.lineno,
                        message=f"engine '{node.name}' declares "
                                f"grid_axes but has no real {family} "
                                f"implementation of '{method}'",
                        hint="implement it (a stub that raises or "
                             "returns None does not keep the oracle "
                             "path reachable), or drop grid_axes")

    def _implemented_methods(
        self, node: ast.ClassDef, classes: dict[str, ast.ClassDef],
    ) -> set[str]:
        implemented: set[str] = set()
        seen: set[str] = set()
        stack = [node]
        while stack:
            current = stack.pop()
            if current.name in seen:
                continue
            seen.add(current.name)
            for stmt in current.body:
                if isinstance(stmt, ast.FunctionDef) \
                        and not _is_stub(stmt):
                    implemented.add(stmt.name)
            for base in current.bases:
                base_name = base.attr if isinstance(base, ast.Attribute) \
                    else (base.id if isinstance(base, ast.Name) else None)
                if base_name in classes:
                    stack.append(classes[base_name])
        return implemented
