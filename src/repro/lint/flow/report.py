"""Renderers for ``hftnetview lint graph``.

Three views over one :class:`~repro.lint.flow.program.ProgramAnalysis`:

* a text summary (module/function/edge counts, layering cycles);
* a stable JSON document (``--format json``), byte-identical across runs
  and ``PYTHONHASHSEED`` values — the graph is already fully sorted, and
  rendering adds ``sort_keys`` on top;
* a ``--why MODULE.FN`` explanation: where the function is, what it does
  directly, what reaches it from the CLI entry points, and how its
  transitive effects flow in.
"""

from __future__ import annotations

import json

from repro.lint.flow.program import ProgramAnalysis
from repro.lint.flow.rules import shared_state_entry_points

#: Bump when the JSON document shape changes.
GRAPH_SCHEMA_VERSION = 1


def graph_document(
    analysis: ProgramAnalysis, *, include_effects: bool = False
) -> dict:
    """The plain-dict form of the graph (sorted, JSON-ready)."""
    graph = analysis.graph
    modules = {
        module: {
            "path": graph.module_paths.get(module, ""),
            "imports": [
                [dep, line] for dep, line in graph.module_imports[module]
            ],
        }
        for module in graph.summaries
    }
    functions = {}
    for fqn, node in graph.functions.items():
        entry: dict = {
            "line": node.line,
            "public": node.is_public,
            "calls": list(graph.call_edges.get(fqn, ())),
        }
        if include_effects:
            entry["effects"] = analysis.effects[fqn].to_dict()
        functions[fqn] = entry
    sccs = [
        list(component)
        for component in graph.strongly_connected_components()
        if len(component) > 1
    ]
    document = {
        "schema": GRAPH_SCHEMA_VERSION,
        "counts": {
            "modules": len(modules),
            "functions": len(functions),
            "call_edges": sum(
                len(edges) for edges in graph.call_edges.values()
            ),
            "import_edges": sum(
                len(deps) for deps in graph.module_imports.values()
            ),
        },
        "modules": modules,
        "functions": functions,
        "recursive_components": sccs,
        "import_cycles": [list(cycle) for cycle in graph.import_cycles()],
    }
    if analysis.unparsed:
        document["unparsed"] = list(analysis.unparsed)
    return document


def render_graph_json(
    analysis: ProgramAnalysis, *, include_effects: bool = False
) -> str:
    return json.dumps(
        graph_document(analysis, include_effects=include_effects),
        indent=2,
        sort_keys=True,
    )


def render_graph_text(analysis: ProgramAnalysis) -> str:
    document = graph_document(analysis)
    counts = document["counts"]
    lines = [
        "program graph:",
        f"  modules:       {counts['modules']}",
        f"  functions:     {counts['functions']}",
        f"  call edges:    {counts['call_edges']}",
        f"  import edges:  {counts['import_edges']}",
        f"  recursive components: {len(document['recursive_components'])}",
    ]
    cycles = document["import_cycles"]
    if cycles:
        lines.append(f"  import cycles: {len(cycles)}")
        for cycle in cycles:
            lines.append("    " + " -> ".join([*cycle, cycle[0]]))
    else:
        lines.append("  import cycles: 0")
    if analysis.unparsed:
        lines.append(f"  unparsed files: {len(analysis.unparsed)}")
        for rel in analysis.unparsed:
            lines.append(f"    {rel}")
    return "\n".join(lines)


def resolve_function(analysis: ProgramAnalysis, name: str) -> str | None:
    """Resolve a (possibly partial) function name to a graph fqn."""
    functions = analysis.graph.functions
    if name in functions:
        return name
    suffix = [
        fqn
        for fqn in functions
        if fqn.endswith("." + name)
    ]
    if len(suffix) == 1:
        return suffix[0]
    return None


def render_why(analysis: ProgramAnalysis, name: str) -> str:
    """Explain one function: location, effects, and how they arrive."""
    fqn = resolve_function(analysis, name)
    if fqn is None:
        candidates = [
            other
            for other in analysis.graph.functions
            if name in other
        ]
        lines = [f"unknown function: {name}"]
        for candidate in candidates[:10]:
            lines.append(f"  did you mean {candidate}?")
        return "\n".join(lines)

    graph = analysis.graph
    node = graph.functions[fqn]
    summary = analysis.effects[fqn]
    lines = [
        f"{fqn}",
        f"  defined:  {analysis.rel_path_of(fqn)}:{node.line}",
        f"  public:   {'yes' if node.is_public else 'no'}",
    ]

    if summary.direct:
        lines.append("  direct effects:")
        for kind, detail, line in summary.direct:
            lines.append(f"    {kind}: {detail} (line {line})")
    else:
        lines.append("  direct effects: none")

    transitive_only = {
        kind: origins
        for kind, origins in summary.transitive.items()
        if kind not in summary.direct_kinds()
    }
    if transitive_only:
        lines.append("  transitive effects:")
        for kind in sorted(transitive_only):
            for leaf, detail, line in transitive_only[kind][:3]:
                chain = graph.shortest_chain([fqn], leaf)
                shown = " -> ".join(chain) if chain else f"{fqn} -> {leaf}"
                lines.append(f"    {kind}: {detail} (line {line})")
                lines.append(f"      {shown}")
            extra = len(transitive_only[kind]) - 3
            if extra > 0:
                lines.append(f"      ... and {extra} more {kind} origin(s)")
    else:
        lines.append("  transitive effects: none beyond direct")

    entries = shared_state_entry_points(analysis)
    chain = graph.shortest_chain(entries, fqn)
    if chain:
        lines.append("  reachable from entry point:")
        lines.append("    " + " -> ".join(chain))
    else:
        lines.append("  not reachable from any CLI entry point")
    return "\n".join(lines)
