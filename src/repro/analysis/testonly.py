"""R009: test-only definitions — runtime code is what the runtime uses.

The repo's design aim is "one concept gets one implementation, and
oracles are small and live in ``tests/``".  A public function or class
in ``src/repro`` that nothing but the test suite reaches is either an
oracle in the wrong place (move it under ``tests/``) or dead code
(delete it).  This rule flags every public module-level function and
class under ``src/repro`` that no runtime path reaches.

Runtime paths start in ``src/``, ``examples/``, ``benchmarks/``,
``perfbench/`` and ``tools/``: every file outside ``src/repro``, the
module-level statements of ``src/repro``, and every definition with a
registration decorator (``@register``).  A definition they reach
reaches in turn everything its own body uses, so a cluster of helpers
that only a test-only function calls is test-only too.  A use is a
loaded name, an attribute, or a string argument of a call
(``getattr(batch, "step_vector_runs")``, a tracing wrapper's target).
Three mentions do not count: an import (an ``__init__.py`` re-export
included; the imported name's use counts instead), an ``__all__``
string (strings are read only as call arguments) and the definition's
own body.  Matching is by unqualified name, so the rule errs toward
silence when two definitions share a name.

:data:`ALLOWLIST` names the definitions kept on purpose, one reason
each, and what they use stays reached; ``docs/static-analysis.md``
lists the same entries, and ``tools/check_docs.py`` checks the two
agree.  Like the lint baseline it ratchets: an entry whose definition
is gone, or which runtime paths reach without it, is reported as
stale.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping

from repro.analysis.core import Finding, Project, Rule, register

#: Top-level directories whose files count as runtime references.
REFERENCE_DIRS = ("src", "examples", "benchmarks", "perfbench", "tools")

#: Dotted name -> why it stays although only tests reach it.
ALLOWLIST: dict[str, str] = {
    "repro.dpml.accountant.rdp_sampled_gaussian":
        "the accountant's one-order RDP formula; tests pin it to the "
        "SciPy oracle and its closed forms",
    "repro.dpml.data.synthetic_classification":
        "DP-SGD substrate: seeded image-classification data",
    "repro.dpml.data.synthetic_sequences":
        "DP-SGD substrate: seeded sequence data for the recurrent layers",
    "repro.dpml.extras.LayerNorm":
        "DP-SGD substrate: the BERT-style normalization layer",
    "repro.dpml.extras.MaxPool2D":
        "DP-SGD substrate: the CNN pooling layer",
    "repro.dpml.layers.MeanOverTime":
        "DP-SGD substrate: the sequence-pooling layer",
    "repro.dpml.layers.SeqDense":
        "DP-SGD substrate: the per-timestep dense layer",
    "repro.dpml.microbatch.MicrobatchDpSgdOptimizer":
        "DP-SGD substrate: virtual batching over micro-batches",
    "repro.dpml.recurrent.LSTM":
        "DP-SGD substrate: the recurrent layer",
    "repro.experiments.runner.config_hash":
        "the documented cache-key hash; its pinned value guards stored "
        "entries across refactors",
}

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

_HINT = ("move it under tests/ as an oracle, delete it with the tests "
         "whose only subject it is, or allowlist it in "
         "repro.analysis.testonly.ALLOWLIST with a reason")


def _uses(node: ast.AST) -> set[str]:
    """Names ``node`` uses: loads, attributes, call string arguments."""
    used: set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            used.add(child.id)
        elif isinstance(child, ast.Attribute):
            used.add(child.attr)
        elif isinstance(child, ast.Call):
            used.update(arg.value for arg in child.args
                        if isinstance(arg, ast.Constant)
                        and isinstance(arg.value, str))
    return used


def _is_registration(node: ast.expr) -> bool:
    """True for ``@register``, ``@x.register`` and their calls."""
    if isinstance(node, ast.Call):
        node = node.func
    name = node.attr if isinstance(node, ast.Attribute) else \
        node.id if isinstance(node, ast.Name) else ""
    return "register" in name


def _dotted(root: Path, path: Path) -> str:
    """``src/repro/a/b.py`` -> ``repro.a.b`` (``__init__`` dropped)."""
    parts = list(path.relative_to(root / "src").with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


@dataclass(frozen=True)
class _Definition:
    """One module-level definition under ``src/repro``."""

    rel: str
    line: int
    name: str
    uses: frozenset[str]
    registered: bool


@register
class OnlyTestedRule(Rule):
    """Flag public ``src/repro`` definitions only tests reference."""

    rule_id = "R009"
    title = "test-only definitions"

    def __init__(self, allowlist: Mapping[str, str] = ALLOWLIST) -> None:
        self.allowlist = allowlist

    def check(self, project: Project) -> Iterator[Finding]:
        root = project.root.resolve()
        parsed = {module.path.resolve(): module.tree
                  for module in project.modules}
        package = root / "src" / "repro"
        roots: set[str] = set()
        defined: dict[str, _Definition] = {}
        for top in REFERENCE_DIRS:
            for path in sorted((root / top).rglob("*.py")):
                tree = parsed.get(path) or ast.parse(path.read_text())
                if not path.is_relative_to(package):
                    roots |= _uses(tree)
                    continue
                module = _dotted(root, path)
                rel = path.relative_to(root).as_posix()
                for node in tree.body:
                    if not isinstance(node, _DEFINITIONS):
                        roots |= _uses(node)
                        continue
                    defined[f"{module}.{node.name}"] = _Definition(
                        rel, node.lineno, node.name,
                        frozenset(_uses(node) - {node.name}),
                        any(_is_registration(dec)
                            for dec in node.decorator_list))

        by_name: dict[str, list[str]] = {}
        for dotted, definition in defined.items():
            by_name.setdefault(definition.name, []).append(dotted)

        def reached(seeds: Iterable[str]) -> set[str]:
            """Definitions reached from the runtime roots and ``seeds``."""
            stack = [dotted for name in roots
                     for dotted in by_name.get(name, ())]
            stack += [dotted for dotted, definition in defined.items()
                      if definition.registered]
            stack += seeds
            live: set[str] = set()
            while stack:
                dotted = stack.pop()
                if dotted not in live:
                    live.add(dotted)
                    stack += [other for name in defined[dotted].uses
                              for other in by_name.get(name, ())]
            return live

        kept = [dotted for dotted in self.allowlist if dotted in defined]
        live = reached(kept)
        for dotted, definition in defined.items():
            if dotted in live or definition.name.startswith("_") \
                    or root / definition.rel not in parsed:
                continue
            yield Finding(
                rule_id=self.rule_id, path=definition.rel,
                line=definition.line,
                message=f"'{dotted}' is not referenced outside tests/",
                hint=_HINT)

        for dotted in sorted(self.allowlist):
            definition = defined.get(dotted)
            if definition is not None and dotted not in reached(
                    entry for entry in kept if entry != dotted):
                continue
            why = "is used outside tests/" if definition else "is deleted"
            yield Finding(
                rule_id=self.rule_id,
                path=(definition.rel if definition
                      else "src/repro/analysis/testonly.py"),
                line=definition.line if definition else 1,
                message=f"stale allowlist entry '{dotted}': it {why}",
                hint="remove it from ALLOWLIST and from the R009 table "
                     "in docs/static-analysis.md")
