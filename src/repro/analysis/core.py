"""Rule-plugin framework for the repo's AST invariant linter.

The linter walks ``src/repro`` with :mod:`ast` and runs every
registered :class:`Rule` over a :class:`Project` (the parsed module
set).  Rules yield :class:`Finding` objects — ``path:line``, a stable
rule id (``R001``..), a message and a fix hint — which the CLI
(``tools/repro_lint.py``) renders and gates CI on.

Three escape hatches, in decreasing order of preference:

* fix the code (findings are real bugs or conventions worth keeping);
* an inline pragma on the flagged line::

      x = cycles + warmup  # repro-lint: ignore[R001] dimensionless warmup

* a checked-in baseline file (one :attr:`Finding.key` per line) for
  legacy findings that cannot be fixed in one PR.  The baseline is
  matched by content, not line number, so unrelated edits never
  invalidate it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
import re
from typing import Iterable, Iterator, Sequence

__all__ = [
    "Finding", "Module", "Project", "Rule", "register", "all_rules",
    "run_rules", "load_baseline", "split_baseline",
]

#: Inline suppression: ``# repro-lint: ignore[R001,R003] why`` (or a
#: bare ``ignore`` to silence every rule on that line).
_PRAGMA = re.compile(
    r"#\s*repro-lint:\s*ignore(?:\[(?P<ids>[A-Z0-9,\s]+)\])?")


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule_id: str
    path: str  #: repo-relative posix path
    line: int
    message: str
    hint: str = ""

    @property
    def key(self) -> str:
        """Line-number-independent identity used by the baseline."""
        return f"{self.path}::{self.rule_id}::{self.message}"

    def render(self) -> str:
        text = f"{self.path}:{self.line}: {self.rule_id}: {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text


@dataclass(frozen=True)
class Module:
    """One parsed source file."""

    path: Path
    rel: str  #: path relative to the project root, posix separators
    tree: ast.Module
    source: str
    lines: tuple[str, ...]

    def suppressed_ids(self, line: int) -> set[str] | None:
        """Rule ids a pragma silences on ``line`` (1-based).

        Returns ``None`` when there is no pragma, and the empty set for
        a bare ``ignore`` (meaning: every rule).
        """
        if not 1 <= line <= len(self.lines):
            return None
        match = _PRAGMA.search(self.lines[line - 1])
        if match is None:
            return None
        ids = match.group("ids")
        if ids is None:
            return set()
        return {token.strip() for token in ids.split(",") if token.strip()}


class Project:
    """The parsed module set one lint run analyzes.

    ``root`` is the repository root (used for relative paths and so
    cross-cutting rules can peek at ``tests/``); ``modules`` are the
    files rules walk.  :meth:`functions_named` and :meth:`iter_classes`
    read indexes built on first use, so rules may call them freely.
    """

    def __init__(self, root: Path, modules: Sequence[Module]) -> None:
        self.root = root
        self.modules = list(modules)

    @classmethod
    def load(cls, root: Path, paths: Iterable[Path]) -> "Project":
        """Parse every ``.py`` file under ``paths`` (files or dirs)."""
        files: list[Path] = []
        for path in paths:
            if path.is_dir():
                files.extend(sorted(path.rglob("*.py")))
            elif path.suffix == ".py":
                files.append(path)
        modules = []
        for path in files:
            source = path.read_text()
            try:
                tree = ast.parse(source, filename=str(path))
            except SyntaxError as error:
                raise SystemExit(f"repro-lint: cannot parse {path}: {error}")
            resolved = path.resolve()
            try:
                rel = resolved.relative_to(root.resolve()).as_posix()
            except ValueError:
                rel = resolved.as_posix()  # outside the repo (fixtures)
            modules.append(Module(
                path=path, rel=rel, tree=tree, source=source,
                lines=tuple(source.splitlines())))
        return cls(root, modules)

    def iter_functions(self) -> Iterator[
            tuple[Module, ast.FunctionDef, ast.ClassDef | None]]:
        """Every function/method with its module and owning class."""
        for module in self.modules:
            stack: list[tuple[ast.AST, ast.ClassDef | None]] = [
                (module.tree, None)]
            while stack:
                node, owner = stack.pop()
                for child in ast.iter_child_nodes(node):
                    if isinstance(child, ast.ClassDef):
                        stack.append((child, child))
                    elif isinstance(child, (ast.FunctionDef,
                                            ast.AsyncFunctionDef)):
                        if isinstance(child, ast.FunctionDef):
                            yield module, child, owner
                        stack.append((child, owner))
                    else:
                        stack.append((child, owner))

    @cached_property
    def _functions_by_name(self) -> dict[str, list[
            tuple[Module, ast.FunctionDef, ast.ClassDef | None]]]:
        """:meth:`iter_functions` grouped by name, walked once."""
        index: dict[str, list[
            tuple[Module, ast.FunctionDef, ast.ClassDef | None]]] = {}
        for entry in self.iter_functions():
            index.setdefault(entry[1].name, []).append(entry)
        return index

    def functions_named(self, name: str) -> list[
            tuple[Module, ast.FunctionDef, ast.ClassDef | None]]:
        """All functions/methods with the given (unqualified) name."""
        return list(self._functions_by_name.get(name, ()))

    @cached_property
    def _classes(self) -> tuple[tuple[Module, ast.ClassDef], ...]:
        return tuple((module, node) for module in self.modules
                     for node in ast.walk(module.tree)
                     if isinstance(node, ast.ClassDef))

    def iter_classes(self) -> Iterator[tuple[Module, ast.ClassDef]]:
        return iter(self._classes)


class Rule:
    """Base class for lint rules; subclasses register via @register."""

    rule_id: str = ""
    title: str = ""

    def check(self, project: Project) -> Iterator[Finding]:
        raise NotImplementedError


_REGISTRY: dict[str, Rule] = {}


def register(rule_cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule instance to the global registry."""
    if not rule_cls.rule_id:
        raise ValueError(f"{rule_cls.__name__} has no rule_id")
    if rule_cls.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule_cls.rule_id}")
    _REGISTRY[rule_cls.rule_id] = rule_cls()
    return rule_cls


def all_rules() -> list[Rule]:
    """Registered rules, ordered by id."""
    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def run_rules(project: Project,
              rules: Sequence[Rule] | None = None) -> list[Finding]:
    """Run ``rules`` (default: all) and return pragma-filtered findings."""
    by_rel = {module.rel: module for module in project.modules}
    findings = []
    for rule in rules if rules is not None else all_rules():
        for finding in rule.check(project):
            module = by_rel.get(finding.path)
            if module is not None:
                ids = module.suppressed_ids(finding.line)
                if ids is not None and (not ids or finding.rule_id in ids):
                    continue
            findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.rule_id, f.message))
    return findings


def load_baseline(path: Path) -> list[str]:
    """Baseline entries (``Finding.key`` strings); comments stripped."""
    if not path.exists():
        return []
    entries = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            entries.append(line)
    return entries


def split_baseline(
    findings: Sequence[Finding], baseline: Iterable[str],
) -> tuple[list[Finding], list[Finding], list[str]]:
    """Partition into (new, baselined) findings plus stale entries."""
    allowed = set(baseline)
    new = [f for f in findings if f.key not in allowed]
    old = [f for f in findings if f.key in allowed]
    stale = sorted(allowed - {f.key for f in findings})
    return new, old, stale
