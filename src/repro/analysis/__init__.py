"""AST-based invariant linter for the repro codebase.

The package is a small rule-plugin framework (:mod:`.core`) plus one
module per rule:

========  =========================================  ==================
rule id   invariant                                  module
========  =========================================  ==================
R001      units-of-measure consistency               :mod:`.units`
R002      cache-key completeness                     :mod:`.cachekeys`
R003      scalar-batched drift                       :mod:`.drift`
R004      determinism (seeded RNG only)              :mod:`.determinism`
R005      oracle-guard (scalar oracle reachable)     :mod:`.oracle`
R006      wall-clock isolation (repro.obs only)      :mod:`.walltime`
R007      link-rate homing (arch.interconnect only)  :mod:`.bandwidth`
R008      fault-path RNG isolation (keyed draws)     :mod:`.faultrng`
========  =========================================  ==================

Run it through ``tools/repro_lint.py`` (the ``lint`` CI job does);
see ``docs/static-analysis.md`` for the conventions each rule enforces
and how to suppress a finding.
"""

from repro.analysis.core import (
    Finding, Module, Project, Rule, all_rules, load_baseline, register,
    run_rules, split_baseline,
)

# Importing the rule modules populates the registry.
from repro.analysis import (  # noqa: F401  (imported for side effects)
    bandwidth, cachekeys, determinism, drift, faultrng, oracle, units,
    walltime,
)

__all__ = [
    "Finding", "Module", "Project", "Rule", "all_rules",
    "load_baseline", "register", "run_rules", "split_baseline",
]
