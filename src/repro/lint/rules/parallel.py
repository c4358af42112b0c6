"""Parallelism discipline: the analysis path runs in one process.

Every analysis driver runs serially against one warm engine, and that is
what keeps its caches, counters and output deterministic.  A module that
builds its own ``ProcessPoolExecutor`` or calls ``multiprocessing.Pool``
breaks that: results may arrive in completion order, worker caches are
silently discarded, and the fork start method can capture
half-initialised parent state.  The one pool left is the load
generator's client fleet (``src/repro/serve/loadgen.py``), which only
issues HTTP requests; this rule confines pool and process construction
to it.
"""

from __future__ import annotations

import ast

from repro.lint.config import LintConfig
from repro.lint.registry import FileContext, Rule, dotted_name, register

#: Pool/process constructors that match bare or dotted
#: (``ProcessPoolExecutor(...)`` and ``futures.ProcessPoolExecutor(...)``).
_POOL_NAMES = (
    "ProcessPoolExecutor",
    "ThreadPoolExecutor",
)

#: Constructors that only count when module-qualified — a bare ``Pool`` or
#: ``Process`` is too common a local name to flag.
_DOTTED_SUFFIXES = (
    "multiprocessing.Pool",
    "multiprocessing.Process",
    "mp.Pool",
    "mp.Process",
    "os.fork",
)


@register
class ParallelDisciplineRule(Rule):
    """Pool/process construction is confined to the allowed paths."""

    name = "parallel-discipline"
    description = (
        "direct pool/process construction outside the load generator; "
        "analysis runs serially so results stay ordered and caches warm"
    )
    interests = (ast.Call,)

    def applies_to(self, rel_path: str, config: LintConfig) -> bool:
        return not any(
            rel_path.startswith(prefix)
            for prefix in config.parallel_allowed_paths()
        )

    def visit(self, node: ast.AST, ctx: FileContext) -> None:
        assert isinstance(node, ast.Call)
        dotted = dotted_name(node.func)
        if dotted is None:
            return
        for name in _POOL_NAMES:
            if dotted == name or dotted.endswith("." + name):
                self._report(ctx, node, dotted)
                return
        for suffix in _DOTTED_SUFFIXES:
            if dotted == suffix or dotted.endswith("." + suffix):
                self._report(ctx, node, dotted)
                return

    def _report(self, ctx: FileContext, node: ast.Call, dotted: str) -> None:
        ctx.report(
            self,
            node,
            f"direct pool/process construction {dotted}(): analysis "
            "runs serially (pools are allowed only in "
            "src/repro/serve/loadgen.py)",
        )
