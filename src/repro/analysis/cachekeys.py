"""R002: cache-key completeness at memoization call sites.

Every persistent memoization in the repo flows through
``runner.cached_batch`` with an explicit ``key_fn`` dict hashed by
``config_hash``.  A config field
that influences the computed value but is missing from the key is a
*silent stale-hit* bug: the cache returns a result computed under a
different configuration, with no error anywhere.

At each call site this rule cross-checks two read sets against the key:

* **attribute reads** — ``param.field`` reads anywhere in the enclosing
  function (which includes the local batch closure) must appear in the
  key dict, either directly or through a one-level alias
  (``batch = ceil(job.batch / ...)`` covers ``job.batch`` when
  ``batch`` is keyed);
* **work-tuple indices** — constant subscripts the batched evaluator
  performs on its work items (``point[3]``, ``point[:3]`` slices and
  full-tuple / ``zip(*points)`` unpacks) must each appear as a
  subscript in the ``key_fn`` lambda.

Parameters named ``self``/``cls``/``cache`` are exempt (the cache
handle itself never belongs in the key).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Finding, Module, Project, Rule, register

#: Memoization entry points (matched by call name, dotted or bare).
_CACHE_CALLS = {"cached_batch"}

#: Enclosing-function parameters never expected in the key.
_EXEMPT_PARAMS = {"self", "cls", "cache"}


def _callee_name(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _param_names(node: ast.FunctionDef) -> list[str]:
    args = node.args
    params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    if args.vararg:
        params.append(args.vararg.arg)
    if args.kwarg:
        params.append(args.kwarg.arg)
    return params


def _attr_reads(node: ast.AST, roots: set[str]) -> set[tuple[str, str]]:
    """``(root, field)`` for every ``root.field`` read under ``node``."""
    reads = set()
    for sub in ast.walk(node):
        if (isinstance(sub, ast.Attribute)
                and isinstance(sub.value, ast.Name)
                and sub.value.id in roots):
            reads.add((sub.value.id, sub.attr))
    return reads


def _names_used(node: ast.AST) -> set[str]:
    """Names appearing *bare* (not as an attribute/subscript base).

    A key holding ``fleet.kind`` covers that one field, not the whole
    ``fleet`` object, so the base name must not count as covered.
    """
    bases = set()
    for sub in ast.walk(node):
        if isinstance(sub, (ast.Attribute, ast.Subscript)) \
                and isinstance(sub.value, ast.Name):
            bases.add(id(sub.value))
    return {sub.id for sub in ast.walk(node)
            if isinstance(sub, ast.Name) and id(sub) not in bases}


def _const_index(node: ast.expr) -> int | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return node.value
    if (isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)
            and isinstance(node.operand, ast.Constant)
            and isinstance(node.operand.value, int)):
        return -node.operand.value
    return None


def _index_reads(node: ast.AST, items_params: set[str],
                 element_vars: set[str]) -> set[int]:
    """Work-tuple indices a batched evaluator reads.

    ``items_params`` are the list-of-work-tuples parameters;
    ``element_vars`` accumulates loop/comprehension variables bound to
    single work tuples.  Handles constant subscripts, constant-bounded
    slices, full-tuple unpacking assignments and ``zip(*items)``
    column unpacks.
    """
    indices: set[int] = set()

    def element_targets(target: ast.expr, source: ast.expr) -> None:
        if (isinstance(source, ast.Name) and source.id in items_params
                and isinstance(target, ast.Name)):
            element_vars.add(target.id)

    def unpack_width(target: ast.expr) -> int | None:
        if isinstance(target, (ast.Tuple, ast.List)):
            if any(isinstance(el, ast.Starred) for el in target.elts):
                return None
            return len(target.elts)
        return None

    def visit_loop_target(target: ast.expr, source: ast.expr) -> None:
        element_targets(target, source)
        # for i, item in enumerate(items): the second target is bound
        # to one work tuple.
        if (isinstance(source, ast.Call)
                and _callee_name(source.func) == "enumerate"
                and source.args
                and isinstance(source.args[0], ast.Name)
                and source.args[0].id in items_params
                and isinstance(target, ast.Tuple)
                and len(target.elts) == 2
                and isinstance(target.elts[1], ast.Name)):
            element_vars.add(target.elts[1].id)

    for sub in ast.walk(node):
        if isinstance(sub, ast.For):
            visit_loop_target(sub.target, sub.iter)
        elif isinstance(sub, ast.comprehension):
            visit_loop_target(sub.target, sub.iter)
        elif isinstance(sub, (ast.Assign, ast.AnnAssign)):
            targets = (sub.targets if isinstance(sub, ast.Assign)
                       else [sub.target])
            value = sub.value
            if value is None:
                continue
            # zip(*items): each unpacked column is a read of one index.
            if (isinstance(value, ast.Call)
                    and _callee_name(value.func) == "zip"
                    and any(isinstance(arg, ast.Starred)
                            and isinstance(arg.value, ast.Name)
                            and arg.value.id in items_params
                            for arg in value.args)):
                for target in targets:
                    width = unpack_width(target)
                    if width is not None:
                        indices.update(range(width))
            # map(list, zip(*items)) keeps the same column structure.
            elif (isinstance(value, ast.Call)
                  and _callee_name(value.func) == "map"
                  and len(value.args) == 2
                  and isinstance(value.args[1], ast.Call)
                  and _callee_name(value.args[1].func) == "zip"
                  and any(isinstance(arg, ast.Starred)
                          and isinstance(arg.value, ast.Name)
                          and arg.value.id in items_params
                          for arg in value.args[1].args)):
                for target in targets:
                    width = unpack_width(target)
                    if width is not None:
                        indices.update(range(width))
            # (a, b, c) = element: reads indices 0..len-1.
            elif (isinstance(value, ast.Name)
                  and value.id in element_vars):
                for target in targets:
                    width = unpack_width(target)
                    if width is not None:
                        indices.update(range(width))
                    element_targets(target, value)
        elif isinstance(sub, ast.Subscript):
            if (isinstance(sub.value, ast.Name)
                    and sub.value.id in element_vars):
                index = _const_index(sub.slice)
                if index is not None:
                    indices.add(index)
                elif isinstance(sub.slice, ast.Slice):
                    lower = (_const_index(sub.slice.lower)
                             if sub.slice.lower is not None else 0)
                    upper = (_const_index(sub.slice.upper)
                             if sub.slice.upper is not None else None)
                    if lower is not None and upper is not None \
                            and 0 <= lower <= upper:
                        indices.update(range(lower, upper))
    return indices


class _CallSite:
    """One memoization call plus its enclosing-function context."""

    def __init__(self, module: Module, call: ast.Call,
                 enclosing: ast.FunctionDef | None) -> None:
        self.module = module
        self.call = call
        self.enclosing = enclosing

    def keyword(self, name: str) -> ast.expr | None:
        for kw in self.call.keywords:
            if kw.arg == name:
                return kw.value
        return None


@register
class CacheKeyRule(Rule):
    """Flag memoized computations whose key misses an input they read."""

    rule_id = "R002"
    title = "cache-key completeness"

    def check(self, project: Project) -> Iterator[Finding]:
        for module in project.modules:
            yield from self._check_module(module)

    def _check_module(self, module: Module) -> Iterator[Finding]:
        # Map every cache call to its innermost enclosing function.
        enclosing: dict[ast.Call, ast.FunctionDef | None] = {}

        def visit(node: ast.AST, owner: ast.FunctionDef | None) -> None:
            for child in ast.iter_child_nodes(node):
                next_owner = owner
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                    next_owner = (child if isinstance(child, ast.FunctionDef)
                                  else owner)
                elif (isinstance(child, ast.Call)
                      and _callee_name(child.func) in _CACHE_CALLS):
                    enclosing[child] = owner
                visit(child, next_owner)

        visit(module.tree, None)
        for call, owner in enclosing.items():
            site = _CallSite(module, call, owner)
            yield from self._check_cached_batch(site)

    # -- covered-by-key extraction ----------------------------------------

    def _key_cover(self, site: _CallSite, key_expr: ast.expr | None,
                   roots: set[str]) -> tuple[
                       set[tuple[str, str]], set[str], set[int], bool]:
        """(covered attrs, covered names, covered indices, resolved?)."""
        if key_expr is None:
            return set(), set(), set(), False
        lambda_params: set[str] = set()
        if isinstance(key_expr, ast.Lambda):
            lambda_params = {a.arg for a in key_expr.args.args}
            key_expr = key_expr.body
        # A key passed as a local name: follow one assignment back.
        if isinstance(key_expr, ast.Name) and site.enclosing is not None:
            target_name = key_expr.id
            for sub in ast.walk(site.enclosing):
                if isinstance(sub, ast.Assign) and any(
                        isinstance(t, ast.Name) and t.id == target_name
                        for t in sub.targets):
                    key_expr = sub.value
                    break
        covered_attrs = _attr_reads(key_expr, roots)
        covered_names = _names_used(key_expr)
        covered_indices = set()
        for sub in ast.walk(key_expr):
            if (isinstance(sub, ast.Subscript)
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id in lambda_params):
                index = _const_index(sub.slice)
                if index is not None:
                    covered_indices.add(index)
        resolved = isinstance(
            key_expr, (ast.Dict, ast.Tuple, ast.List, ast.Call))
        return covered_attrs, covered_names, covered_indices, resolved

    def _alias_cover(self, site: _CallSite, covered_names: set[str],
                     roots: set[str]) -> set[tuple[str, str]]:
        """Attrs covered through one level of local aliasing."""
        covered: set[tuple[str, str]] = set()
        if site.enclosing is None:
            return covered
        for sub in ast.walk(site.enclosing):
            if isinstance(sub, ast.Assign):
                names = [t.id for t in sub.targets
                         if isinstance(t, ast.Name)]
                if any(name in covered_names for name in names):
                    covered |= _attr_reads(sub.value, roots)
        return covered

    # -- cached_batch ------------------------------------------------------

    def _check_cached_batch(self, site: _CallSite) -> Iterator[Finding]:
        key_fn = site.keyword("key_fn")
        fn_expr = site.call.args[0] if site.call.args else None
        roots: set[str] = set()
        if site.enclosing is not None:
            roots = {p for p in _param_names(site.enclosing)
                     if p not in _EXEMPT_PARAMS}
        covered_attrs, covered_names, covered_indices, resolved = \
            self._key_cover(site, key_fn, roots)
        if not resolved:
            return
        covered_attrs |= self._alias_cover(site, covered_names, roots)

        # Resolve the batch evaluator: a local closure or module function.
        fn_node: ast.FunctionDef | None = None
        if isinstance(fn_expr, ast.Name):
            fn_name = fn_expr.id
            scopes: list[ast.AST] = []
            if site.enclosing is not None:
                scopes.append(site.enclosing)
            scopes.append(site.module.tree)
            for scope in scopes:
                for child in ast.walk(scope):
                    if isinstance(child, ast.FunctionDef) \
                            and child.name == fn_name:
                        fn_node = child
                        break
                if fn_node is not None:
                    break
        if fn_node is None:
            return

        # Attribute reads of the enclosing function's parameters — the
        # batch closure sees them too — must be keyed.
        if site.enclosing is not None and roots:
            reads = _attr_reads(site.enclosing, roots)
            for root, attr in sorted(reads - covered_attrs):
                if root in covered_names:
                    continue
                yield self._finding(
                    site, f"batched evaluation reads '{root}.{attr}' but "
                          f"key_fn never includes it",
                    f"add '{attr}' to the key_fn dict")

        # Work-tuple indices the evaluator reads must be keyed.
        items_params = set(_param_names(fn_node)) - _EXEMPT_PARAMS
        element_vars: set[str] = set()
        read_indices = _index_reads(fn_node, items_params, element_vars)
        for index in sorted(read_indices - covered_indices):
            yield self._finding(
                site, f"batched evaluator '{fn_node.name}' reads work "
                      f"item field [{index}] but key_fn never includes "
                      f"it",
                f"key the field: add 'point[{index}]' to the key_fn "
                "dict (and bump the key to invalidate old entries)")

    def _finding(self, site: _CallSite, message: str,
                 hint: str) -> Finding:
        return Finding(
            rule_id=self.rule_id, path=site.module.rel,
            line=site.call.lineno, message=message, hint=hint)
