"""The whole-program lint rules powered by the flow analysis.

Four rules, all :class:`~repro.lint.registry.ProgramRule` subclasses fed
one shared :class:`~repro.lint.flow.program.ProgramAnalysis` per run:

``shared-state``
    Functions reachable from a CLI subcommand main (or any other
    configured entry point) must not write module-level state:
    subcommands must compose in one process.  Deliberate globals (the obs
    session accumulator, the engine mode toggles) are allowlisted in
    configuration.
``transitive-determinism``
    A wall-clock read or unseeded RNG anywhere below a public function
    makes that function non-reproducible even though its own body is
    clean.  Flagged once, at the *minimal* public boundary — the per-file
    determinism rules already flag the leaf itself.
``layering``
    The import DAG must respect the architecture's tiers
    (constants/obs → geodesy → uls → core → … → cli) and contain no
    cycles.
``dead-code``
    Private functions unreachable from any public symbol, module body,
    decorated function, CLI entry, or test/benchmark reference are dead.

All traversals use the graph's sorted orders; findings come out sorted,
independent of hash seeding.
"""

from __future__ import annotations

import fnmatch

from repro.lint.findings import Finding
from repro.lint.flow.program import ProgramAnalysis
from repro.lint.registry import ProgramRule, register


def _matches_any(fqn: str, patterns: tuple[str, ...]) -> bool:
    return any(fnmatch.fnmatchcase(fqn, pattern) for pattern in patterns)


def shared_state_entry_points(analysis: ProgramAnalysis) -> list[str]:
    """Function fqns matching the configured entry-point patterns."""
    patterns = analysis.config.shared_state_roots()
    return sorted(
        fqn
        for fqn in analysis.graph.functions
        if _matches_any(fqn, patterns)
    )


@register
class SharedStateRule(ProgramRule):
    """No module-global writes reachable from the entry points."""

    name = "shared-state"
    description = (
        "module-global write reachable from a CLI entry: hidden "
        "cross-call state breaks subcommand composition; pass state "
        "explicitly"
    )

    def check_program(self, analysis: ProgramAnalysis) -> list[Finding]:
        graph = analysis.graph
        roots = shared_state_entry_points(analysis)
        if not roots:
            return []
        allowed = set(analysis.config.shared_state_allowed())
        reachable = graph.reachable(roots)
        findings: list[Finding] = []
        for fqn in sorted(reachable):
            node = graph.functions[fqn]
            if node.is_module_body:
                # Import-time initialisation defines globals; the rule
                # polices post-import mutation.
                continue
            for kind, detail, line in node.effects:
                if kind != "global-write" or detail in allowed:
                    continue
                chain = graph.shortest_chain(roots, fqn)
                entry = chain[0] if chain else roots[0]
                findings.append(
                    Finding(
                        path=analysis.rel_path_of(fqn),
                        line=line,
                        column=1,
                        rule=self.name,
                        message=(
                            f"{node.qual} writes module global "
                            f"'{detail}' and is reachable from entry "
                            f"point '{entry}'; pass the state explicitly "
                            "or allowlist it under "
                            "[tool.repro.lint.shared-state]"
                        ),
                    )
                )
        return sorted(findings)


#: Transitive effect kinds the determinism boundary rule polices (process
#: timers are the obs layer's business, filesystem IO the cache rules').
_DETERMINISM_KINDS = ("clock", "rng")

_KIND_VERB = {
    "clock": "reads the wall clock",
    "rng": "draws from an unseeded RNG",
}


@register
class TransitiveDeterminismRule(ProgramRule):
    """Clock/RNG effects surface at the public API boundary."""

    name = "transitive-determinism"
    description = (
        "public function transitively reads the wall clock or an "
        "unseeded RNG: callers cannot reproduce its output; thread the "
        "date/seed through parameters"
    )

    def check_program(self, analysis: ProgramAnalysis) -> list[Finding]:
        graph = analysis.graph
        effects = analysis.effects
        findings: list[Finding] = []
        for fqn, node in graph.functions.items():
            if not node.is_public:
                continue
            summary = effects[fqn]
            direct = summary.direct_kinds()
            for kind in _DETERMINISM_KINDS:
                origins = summary.origins(kind)
                if not origins or kind in direct:
                    # Leaf effects are the per-file rules' findings.
                    continue
                # Flag only the minimal public boundary: if a public
                # callee already carries the effect, it owns the finding.
                if any(
                    graph.functions[callee].is_public
                    and kind in effects[callee].transitive
                    for callee in graph.call_edges.get(fqn, ())
                ):
                    continue
                leaf, detail, _line = origins[0]
                more = len(origins) - 1
                via = f"via {leaf} ({detail})" + (
                    f" and {more} more site(s)" if more else ""
                )
                findings.append(
                    Finding(
                        path=analysis.rel_path_of(fqn),
                        line=node.line,
                        column=1,
                        rule=self.name,
                        message=(
                            f"public function {node.qual} transitively "
                            f"{_KIND_VERB[kind]} {via}; thread it through "
                            "parameters (chain: hftnetview lint graph "
                            f"--why {fqn})"
                        ),
                    )
                )
        return sorted(findings)


@register
class LayeringRule(ProgramRule):
    """The module import graph respects the tier order and is acyclic."""

    name = "layering"
    description = (
        "import against the layering (constants/obs -> geodesy -> uls -> "
        "core -> analyses -> cli) or an import cycle: lower tiers must "
        "not know about higher ones"
    )

    def _tier_of(
        self, module: str, layers: tuple[tuple[str, ...], ...]
    ) -> tuple[int, str] | None:
        best: tuple[int, str] | None = None
        for tier, entries in enumerate(layers):
            for entry in entries:
                if module == entry or module.startswith(entry + "."):
                    if best is None or len(entry) > len(best[1]):
                        best = (tier, entry)
        return best

    def check_program(self, analysis: ProgramAnalysis) -> list[Finding]:
        graph = analysis.graph
        layers = analysis.config.layering_layers()
        findings: list[Finding] = []
        for module in sorted(graph.module_imports):
            importer = self._tier_of(module, layers)
            if importer is None:
                continue
            for dep, line in graph.module_imports[module]:
                imported = self._tier_of(dep, layers)
                if imported is None:
                    continue
                if imported[0] > importer[0]:
                    findings.append(
                        Finding(
                            path=graph.module_paths.get(module, ""),
                            line=line,
                            column=1,
                            rule=self.name,
                            message=(
                                f"layering violation: {module} (tier "
                                f"{importer[0]}, {importer[1]}) imports "
                                f"{dep} (tier {imported[0]}, "
                                f"{imported[1]}); dependencies must "
                                "point at the same or a lower tier"
                            ),
                        )
                    )
        for cycle in graph.import_cycles():
            findings.append(
                Finding(
                    path=graph.module_paths.get(cycle[0], ""),
                    line=1,
                    column=1,
                    rule=self.name,
                    message=(
                        "import cycle: " + " -> ".join(cycle)
                        + " -> " + cycle[0]
                    ),
                )
            )
        return sorted(findings)


@register
class DeadCodeRule(ProgramRule):
    """Private functions must be reachable from something that runs."""

    name = "dead-code"
    description = (
        "private function unreachable from any public symbol, CLI entry, "
        "decorated function or test reference: dead code rots and hides "
        "behind coverage numbers"
    )

    def check_program(self, analysis: ProgramAnalysis) -> list[Finding]:
        graph = analysis.graph
        entry_patterns = analysis.config.shared_state_roots()
        roots: list[str] = []
        for fqn, node in graph.functions.items():
            if "." in node.qual and not node.is_module_body:
                cls_fqn = f"{node.module}.{node.qual.rsplit('.', 1)[0]}"
                # Overriding a method of an external base
                # (BaseHTTPRequestHandler's do_GET ...) means the framework
                # calls it.
                if cls_fqn in graph.externally_derived:
                    roots.append(fqn)
                    continue
            if (
                node.is_public
                or node.is_module_body
                or node.is_dunder
                or node.decorated
                or _matches_any(fqn, entry_patterns)
                or node.name in analysis.external_names
            ):
                roots.append(fqn)
        reachable = graph.reachable(roots, with_strings=True)
        findings: list[Finding] = []
        for fqn, node in graph.functions.items():
            if fqn in reachable:
                continue
            findings.append(
                Finding(
                    path=analysis.rel_path_of(fqn),
                    line=node.line,
                    column=1,
                    rule=self.name,
                    message=(
                        f"private function {node.qual} is unreachable "
                        "from any public symbol, CLI entry or test; "
                        "delete it or wire it in"
                    ),
                )
            )
        return sorted(findings)
