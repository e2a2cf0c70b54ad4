"""Docs stay healthy: links resolve, the README CLI table matches the
actual CLI (same checks the CI docs job runs via tools/check_docs.py)."""

import importlib.util
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_check_docs():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO_ROOT / "tools" / "check_docs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check_docs = _load_check_docs()


def test_readme_and_docs_exist():
    assert (REPO_ROOT / "README.md").is_file()
    assert (REPO_ROOT / "docs" / "architecture.md").is_file()
    assert (REPO_ROOT / "docs" / "modeling-assumptions.md").is_file()


def test_internal_links_resolve():
    assert check_docs.check_links(check_docs.iter_doc_files()) == []


def test_cli_table_matches_cli():
    problems = check_docs.check_cli_table(REPO_ROOT / "README.md")
    assert problems == [], "\n".join(problems)


def test_declared_subcommands_found_statically():
    declared = check_docs.declared_subcommands(
        REPO_ROOT / "src" / "repro" / "__main__.py")
    assert "serve" in declared
    assert "scaling" in declared
    assert len(declared) == len(set(declared))


def test_every_declared_subcommand_is_documented():
    problems = check_docs.check_declared_subcommands(
        REPO_ROOT / "README.md",
        REPO_ROOT / "src" / "repro" / "__main__.py")
    assert problems == [], "\n".join(problems)


def test_declared_check_flags_missing_row(tmp_path):
    readme = tmp_path / "README.md"
    readme.write_text("| `models` | list models |\n")
    main_py = tmp_path / "__main__.py"
    main_py.write_text('sub.add_parser("models")\n'
                       'sub.add_parser("serve", help="x")\n')
    problems = check_docs.check_declared_subcommands(readme, main_py)
    assert len(problems) == 1
    assert "serve" in problems[0]


def test_declared_check_flags_unscannable_main(tmp_path):
    readme = tmp_path / "README.md"
    readme.write_text("| `models` | list models |\n")
    main_py = tmp_path / "__main__.py"
    main_py.write_text("print('no subparsers here')\n")
    problems = check_docs.check_declared_subcommands(readme, main_py)
    assert len(problems) == 1
    assert "no add_parser" in problems[0]


def test_api_names_resolve():
    problems = check_docs.check_api_names(check_docs.iter_doc_files())
    assert problems == [], "\n".join(problems)


def test_api_name_check_flags_deleted_name(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text("Resolves: `repro.serve.metrics.percentile`.\n"
                   "Gone: `repro.sim.PipelineSimulator`.\n")
    problems = check_docs.check_api_names([doc])
    assert len(problems) == 1
    assert "doc.md:2" in problems[0]
    assert "repro.sim.PipelineSimulator" in problems[0]


def test_allowlist_table_matches_rule():
    problems = check_docs.check_allowlist_table(
        REPO_ROOT / "docs" / "static-analysis.md",
        REPO_ROOT / "src" / "repro" / "analysis" / "testonly.py")
    assert problems == [], "\n".join(problems)


def test_allowlist_check_flags_drift_both_ways(tmp_path):
    rule = tmp_path / "testonly.py"
    rule.write_text('ALLOWLIST: dict[str, str] = {\n'
                    '    "repro.a.kept": "why",\n'
                    '    "repro.a.undocumented": "why",\n}\n')
    doc = tmp_path / "static-analysis.md"
    doc.write_text("## R009 allowlist\n\n| Name | Why |\n|---|---|\n"
                   "| `repro.a.kept` | why |\n"
                   "| `repro.a.removed` | why |\n\n"
                   "## Next\n\n| `repro.a.undocumented` | elsewhere |\n")
    problems = check_docs.check_allowlist_table(doc, rule)
    assert len(problems) == 2
    assert "missing 'repro.a.undocumented'" in problems[0]
    assert "lists 'repro.a.removed'" in problems[1]


def test_main_aggregates_helper_problems(monkeypatch):
    # Wiring only — the helpers themselves are exercised above, so
    # don't repeat their subprocess fan-out here.
    monkeypatch.setattr(check_docs, "check_links", lambda docs: [])
    monkeypatch.setattr(check_docs, "check_cli_table", lambda readme: [])
    monkeypatch.setattr(check_docs, "check_declared_subcommands",
                        lambda readme, main_py: [])
    assert check_docs.main() == 0
    monkeypatch.setattr(check_docs, "check_cli_table",
                        lambda readme: ["stale row"])
    assert check_docs.main() == 1
