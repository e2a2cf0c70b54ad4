"""Docs health check: internal links resolve, CLI table can't rot.

Run from anywhere:
    python tools/check_docs.py

Checks, in order:

1. every relative link in ``README.md`` and ``docs/*.md`` points at a
   file or directory that exists in the repository;
2. the set of subcommands documented in the README's CLI table matches
   exactly the set ``python -m repro --help`` advertises;
3. every subcommand *declared* in ``src/repro/__main__.py``
   (``add_parser`` calls, found statically) appears in the README CLI
   table — a belt-and-braces check that does not depend on parsing
   argparse's ``--help`` output;
4. ``python -m repro --help`` and every documented subcommand's
   ``--help`` exit cleanly;
5. the lint-rule table in ``docs/static-analysis.md`` names exactly
   the rule ids registered in ``src/repro/analysis/`` (found
   statically via ``rule_id = "..."`` assignments);
6. every backticked dotted ``repro.…`` name in ``README.md`` and
   ``docs/*.md`` resolves: its longest importable module prefix is
   imported and the rest is looked up with ``getattr``.

Exits nonzero (listing every problem) on any failure, so CI can gate
on it; see the ``docs`` job in ``.github/workflows/ci.yml``.
"""

from __future__ import annotations

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Markdown inline links: [text](target)
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
#: First backticked token of a markdown table row: | `models` | ...
_CLI_ROW = re.compile(r"^\|\s*`([^`]+)`\s*\|")
#: The subcommand set argparse prints: {models,experiments,...}
_HELP_CHOICES = re.compile(r"\{([a-z0-9_,-]+)\}")
#: Subparser declarations in __main__.py: sub.add_parser("name", ...)
_ADD_PARSER = re.compile(r"""add_parser\(\s*["']([a-z0-9_-]+)["']""")
#: Lint-rule ids in the static-analysis doc's table: | `R001` | ...
_RULE_ROW = re.compile(r"^\|\s*`(R\d{3})`\s*\|")
#: Rule registrations in src/repro/analysis/: rule_id = "R001"
_RULE_ID = re.compile(r"""^\s*rule_id\s*=\s*["'](R\d{3})["']""",
                      re.MULTILINE)
#: Backticked dotted API names: `repro.serve.metrics.percentile`
_API_NAME = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)`")


def iter_doc_files() -> list[Path]:
    docs = [REPO_ROOT / "README.md"]
    docs += sorted((REPO_ROOT / "docs").glob("*.md"))
    return [path for path in docs if path.exists()]


def check_links(doc_files: list[Path]) -> list[str]:
    """Broken relative links, as human-readable problem strings."""
    problems = []
    for doc in doc_files:
        for line_no, line in enumerate(doc.read_text().splitlines(), 1):
            for target in _LINK.findall(line):
                if target.startswith(("http://", "https://", "mailto:", "#")):
                    continue
                resolved = (doc.parent / target.split("#", 1)[0]).resolve()
                if not resolved.exists():
                    rel = doc.relative_to(REPO_ROOT)
                    problems.append(
                        f"{rel}:{line_no}: broken link -> {target}")
    return problems


def documented_subcommands(readme: Path) -> list[str]:
    """Subcommands named in the README's CLI table, in table order."""
    subs = []
    for line in readme.read_text().splitlines():
        match = _CLI_ROW.match(line.strip())
        if match:
            token = match.group(1).split()[0]
            if token not in subs:
                subs.append(token)
    return subs


def declared_subcommands(main_py: Path) -> list[str]:
    """Subcommands ``__main__.py`` declares, in declaration order."""
    return _ADD_PARSER.findall(main_py.read_text())


def check_declared_subcommands(readme: Path, main_py: Path) -> list[str]:
    """Declared-but-undocumented subcommands, as problem strings.

    Statically scans ``__main__.py`` for ``add_parser`` calls and
    requires each name in the README CLI table.  Unlike the
    ``--help``-based check this cannot be fooled by argparse output
    formatting, so a new subcommand can never land undocumented.
    """
    declared = declared_subcommands(main_py)
    if not declared:
        return [f"{main_py.name}: no add_parser declarations found "
                "(check_docs cannot verify CLI coverage)"]
    documented = set(documented_subcommands(readme))
    return [
        f"README CLI table is missing subcommand {name!r} "
        f"declared in {main_py.name}"
        for name in declared if name not in documented
    ]


def run_cli(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, timeout=120, env=env,
        cwd=REPO_ROOT)


def check_cli_table(readme: Path) -> list[str]:
    """CLI-table staleness and --help failures, as problem strings."""
    documented = documented_subcommands(readme)
    if not documented:
        return [f"{readme.name}: no CLI table rows found "
                "(expected lines like '| `models` | ... |')"]
    problems = []
    top = run_cli("--help")
    if top.returncode != 0:
        return [f"python -m repro --help failed:\n{top.stderr[-500:]}"]
    match = _HELP_CHOICES.search(top.stdout)
    actual = set(match.group(1).split(",")) if match else set()
    for missing in sorted(actual - set(documented)):
        problems.append(
            f"README CLI table is missing subcommand {missing!r}")
    for stale in sorted(set(documented) - actual):
        problems.append(
            f"README CLI table documents unknown subcommand {stale!r}")
    for sub in documented:
        if sub not in actual:
            continue  # already reported as stale
        result = run_cli(sub, "--help")
        if result.returncode != 0:
            problems.append(
                f"python -m repro {sub} --help failed:\n"
                f"{result.stderr[-500:]}")
    return problems


def check_rule_table(doc: Path, analysis_dir: Path) -> list[str]:
    """Static-analysis rule-table drift, as problem strings.

    The doc's rule table and the ``rule_id`` assignments under
    ``src/repro/analysis/`` must name exactly the same ids, so a new
    rule cannot land undocumented and the doc cannot advertise a rule
    that no longer exists.
    """
    if not doc.exists():
        return [f"{doc.name}: missing (lint rules are undocumented)"]
    documented = {match.group(1)
                  for line in doc.read_text().splitlines()
                  if (match := _RULE_ROW.match(line.strip()))}
    registered = set()
    for source in sorted(analysis_dir.rglob("*.py")):
        registered.update(_RULE_ID.findall(source.read_text()))
    if not registered:
        return [f"{analysis_dir}: no rule_id assignments found "
                "(check_docs cannot verify the rule table)"]
    rel = doc.relative_to(REPO_ROOT)
    problems = [
        f"{rel}: rule table is missing registered rule {rule_id!r}"
        for rule_id in sorted(registered - documented)
    ]
    problems += [
        f"{rel}: rule table documents unknown rule {rule_id!r}"
        for rule_id in sorted(documented - registered)
    ]
    return problems


def resolve_api_name(name: str) -> str | None:
    """Why ``name`` does not resolve, or None when it does."""
    parts = name.split(".")
    for split in range(len(parts), 0, -1):
        module_name = ".".join(parts[:split])
        try:
            obj = importlib.import_module(module_name)
        except ModuleNotFoundError as err:
            missing = err.name or ""
            if module_name == missing \
                    or module_name.startswith(missing + "."):
                continue  # not a module: try a shorter prefix
            return f"importing {module_name} failed: {err}"
        for attr in parts[split:]:
            if not hasattr(obj, attr):
                return f"{module_name} has no {'.'.join(parts[split:])}"
            obj = getattr(obj, attr)
        return None
    return f"no module of {name} imports"


def check_api_names(doc_files: list[Path]) -> list[str]:
    """Backticked ``repro.…`` names that do not resolve, as problem
    strings.  ``src/`` is put on ``sys.path`` for the imports."""
    src = str(REPO_ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    problems = []
    for doc in doc_files:
        for line_no, line in enumerate(doc.read_text().splitlines(), 1):
            for name in _API_NAME.findall(line):
                reason = resolve_api_name(name)
                if reason is not None:
                    problems.append(f"{doc.name}:{line_no}: `{name}` does "
                                    f"not resolve ({reason})")
    return problems


def main() -> int:
    doc_files = iter_doc_files()
    if not doc_files:
        print("check_docs: no documentation files found", file=sys.stderr)
        return 1
    problems = check_links(doc_files)
    problems += check_declared_subcommands(
        REPO_ROOT / "README.md",
        REPO_ROOT / "src" / "repro" / "__main__.py")
    problems += check_cli_table(REPO_ROOT / "README.md")
    problems += check_rule_table(
        REPO_ROOT / "docs" / "static-analysis.md",
        REPO_ROOT / "src" / "repro" / "analysis")
    problems += check_api_names(doc_files)
    if problems:
        for problem in problems:
            print(f"check_docs: {problem}", file=sys.stderr)
        return 1
    names = ", ".join(str(p.relative_to(REPO_ROOT)) for p in doc_files)
    print(f"check_docs: OK ({names}; "
          f"{len(documented_subcommands(REPO_ROOT / 'README.md'))} "
          "CLI subcommands exercised)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
