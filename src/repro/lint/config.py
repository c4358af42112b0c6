"""Lint configuration: defaults, and the ``[tool.repro.lint]`` overlay.

The linter is usable with zero configuration — every default below matches
this repository's layout — but each knob is overridable from
``pyproject.toml`` so the tool survives refactors without code changes::

    [tool.repro.lint]
    enable = ["determinism-hash-seed", ...]   # default: all registered
    baseline = "lint-baseline.json"
    default_paths = ["src/repro"]

    [tool.repro.lint.float-eq]
    paths = ["src/repro/geodesy/", "src/repro/core/latency.py"]

    [tool.repro.lint.cache-discipline]
    allowed = ["src/repro/core/engine.py"]

    [tool.repro.lint.unit-suffix]
    groups = [["_m", "_km"], ["_s", "_ms", "_us"]]

Rule sections are keyed by rule name; unknown keys raise so typos cannot
silently disable enforcement.
"""

from __future__ import annotations

import tomllib
from dataclasses import dataclass, field
from pathlib import Path

#: Paths linted when the CLI is given none.
DEFAULT_PATHS = ("src/repro",)

#: Default committed-baseline location, relative to the project root.
DEFAULT_BASELINE = "lint-baseline.json"

#: Where the float-eq rule applies (project-root-relative prefixes).
DEFAULT_FLOAT_EQ_PATHS = (
    "src/repro/geodesy/",
    "src/repro/core/latency.py",
    "src/repro/metrics/",
)

#: Files allowed to construct the cache-free reconstruction kernel.
DEFAULT_CACHE_ALLOWED = (
    "src/repro/core/engine.py",
    "src/repro/core/reconstruction.py",
)

#: Path prefixes allowed to touch the persistent store's on-disk layout
#: directly (:mod:`repro.store.layout`'s entry read/write/quarantine
#: functions).  Everything else goes through ``CacheStore`` — a second
#: code path reading or writing entry files would bypass the atomic
#: publication and quarantine discipline.
DEFAULT_STORE_ALLOWED = (
    "src/repro/store/",
)

#: Path prefixes allowed to call ``UlsDatabase.active_on`` (a linear scan
#: that materialises the license list); everything else resolves active
#: sets through the temporal index or the engine.
DEFAULT_ACTIVE_ON_ALLOWED = (
    "src/repro/uls/",
    "src/repro/core/engine.py",
)

#: Path prefixes allowed to construct a ``ColumnarLicenseStore`` directly.
#: Stores are per-database-generation derived state; building one anywhere
#: else risks stale columns after a mutation — everything outside the uls
#: layer obtains the cached store via ``UlsDatabase.columnar_store()``
#: (the engine constructs ephemeral stores for explicit license sets).
DEFAULT_COLUMNAR_ALLOWED = (
    "src/repro/uls/",
    "src/repro/core/engine.py",
)

#: Unit-suffix vocabulary: suffixes within one group share a dimension and
#: must not be mixed in a single additive expression or comparison.
DEFAULT_UNIT_GROUPS = (
    ("_m", "_km"),
    ("_s", "_ms", "_us"),
)

#: Path prefixes allowed to read process timers directly; everything else
#: must time through ``repro.obs`` spans.  The load generator measures
#: client-observed latency — wall time is its product, like benchmarks.
DEFAULT_OBS_ALLOWED = (
    "src/repro/obs/",
    "benchmarks/",
    "src/repro/serve/loadgen.py",
)

#: Path prefixes allowed to construct pools/processes directly: only the
#: load generator's client fleet; everything else runs serially.
DEFAULT_PARALLEL_ALLOWED = (
    "src/repro/serve/loadgen.py",
)

#: Source roots the whole-program flow analysis parses.  Modules are named
#: by their path relative to each root's *parent* (``src/repro/core``
#: → ``repro.core``), so roots must be package directories.
DEFAULT_FLOW_ROOTS = ("src/repro",)

#: On-disk findings/summary cache written by the CLI (root-relative).
DEFAULT_FLOW_CACHE = ".lint-cache.json"

#: fnmatch patterns (over function fqns) naming the entry points whose
#: reachable set must not mutate module-level state: the CLI subcommand
#: mains (each must be runnable in any order, in one process).
DEFAULT_SHARED_STATE_ROOTS = (
    "repro.cli.main",
    "repro.cli._cmd_*",
)

#: Module globals whose mutation is deliberate: the obs session
#: accumulator (reset per process), the engine's process-wide mode
#: toggles (written only by CLI flag handling before any work runs), the
#: geodesy memo scope handle, the import-time registries and the serve
#: session handle.
DEFAULT_SHARED_STATE_ALLOWED = (
    "repro.core.engine.INCREMENTAL_DEFAULT",
    "repro.core.engine.KERNEL_DEFAULT",
    "repro.core.engine.STORE_DEFAULT",
    "repro.geodesy.memo._active_memo",
    "repro.lint.registry._REGISTRY",
    "repro.obs.spans._STATE",
    "repro.scenarios.registry._REGISTRY",
    "repro.serve.server._ACTIVE_SERVER",
)

#: The import layering, lowest tier first.  A module may import same-tier
#: or lower-tier modules; importing upward is a finding.  Modules matching
#: no entry (``repro.lint``, the ``repro`` package itself) are untiered:
#: they may be imported from anywhere and the rule stays silent about
#: their own imports.
DEFAULT_LAYERS = (
    ("repro.constants", "repro.obs"),
    ("repro.geodesy",),
    ("repro.uls",),
    ("repro.core",),
    ("repro.store",),
    ("repro.leo", "repro.radio", "repro.synth"),
    ("repro.scenarios",),
    ("repro.metrics",),
    ("repro.viz",),
    ("repro.analysis", "repro.design"),
    ("repro.serve",),
    ("repro.cli", "repro.__main__"),
)

#: Root-relative paths scanned for identifiers that keep private
#: functions alive (tests and benchmarks reach into internals by name).
DEFAULT_DEAD_CODE_REFERENCES = ("tests", "benchmarks", "scripts")

_KNOWN_TOP_KEYS = {"enable", "baseline", "default_paths"}


class LintConfigError(ValueError):
    """Raised for malformed ``[tool.repro.lint]`` sections."""


@dataclass(frozen=True)
class LintConfig:
    """The resolved configuration one lint run operates under."""

    #: Project root every relative path (findings, baseline) hangs off.
    root: Path
    #: Rule names to run (None = every registered rule).
    enabled: tuple[str, ...] | None = None
    #: Baseline file path, relative to ``root``.
    baseline_path: str = DEFAULT_BASELINE
    #: Paths linted when the caller passes none.
    default_paths: tuple[str, ...] = DEFAULT_PATHS
    #: Per-rule option tables (rule name → options dict).
    rule_options: dict = field(default_factory=dict)

    def options_for(self, rule_name: str) -> dict:
        return self.rule_options.get(rule_name, {})

    def float_eq_paths(self) -> tuple[str, ...]:
        paths = self.options_for("float-eq").get("paths")
        return tuple(paths) if paths is not None else DEFAULT_FLOAT_EQ_PATHS

    def cache_allowed_files(self) -> tuple[str, ...]:
        allowed = self.options_for("cache-discipline").get("allowed")
        return tuple(allowed) if allowed is not None else DEFAULT_CACHE_ALLOWED

    def active_on_allowed_paths(self) -> tuple[str, ...]:
        allowed = self.options_for("cache-discipline").get("active_on_allowed")
        return tuple(allowed) if allowed is not None else DEFAULT_ACTIVE_ON_ALLOWED

    def columnar_allowed_paths(self) -> tuple[str, ...]:
        allowed = self.options_for("cache-discipline").get("columnar_allowed")
        return tuple(allowed) if allowed is not None else DEFAULT_COLUMNAR_ALLOWED

    def store_allowed_paths(self) -> tuple[str, ...]:
        allowed = self.options_for("cache-discipline").get("store_allowed")
        return tuple(allowed) if allowed is not None else DEFAULT_STORE_ALLOWED

    def unit_groups(self) -> tuple[tuple[str, ...], ...]:
        groups = self.options_for("unit-suffix").get("groups")
        if groups is None:
            return DEFAULT_UNIT_GROUPS
        return tuple(tuple(group) for group in groups)

    def obs_allowed_paths(self) -> tuple[str, ...]:
        allowed = self.options_for("obs-discipline").get("allowed")
        return tuple(allowed) if allowed is not None else DEFAULT_OBS_ALLOWED

    def parallel_allowed_paths(self) -> tuple[str, ...]:
        allowed = self.options_for("parallel-discipline").get("allowed")
        return tuple(allowed) if allowed is not None else DEFAULT_PARALLEL_ALLOWED

    def flow_roots(self) -> tuple[str, ...]:
        roots = self.options_for("flow").get("roots")
        return tuple(roots) if roots is not None else DEFAULT_FLOW_ROOTS

    def flow_cache_path(self) -> str:
        path = self.options_for("flow").get("cache")
        return str(path) if path is not None else DEFAULT_FLOW_CACHE

    def shared_state_roots(self) -> tuple[str, ...]:
        roots = self.options_for("shared-state").get("roots")
        return tuple(roots) if roots is not None else DEFAULT_SHARED_STATE_ROOTS

    def shared_state_allowed(self) -> tuple[str, ...]:
        allowed = self.options_for("shared-state").get("allowed")
        return (
            tuple(allowed) if allowed is not None else DEFAULT_SHARED_STATE_ALLOWED
        )

    def layering_layers(self) -> tuple[tuple[str, ...], ...]:
        layers = self.options_for("layering").get("layers")
        if layers is None:
            return DEFAULT_LAYERS
        return tuple(tuple(layer) for layer in layers)

    def dead_code_reference_paths(self) -> tuple[str, ...]:
        paths = self.options_for("dead-code").get("references")
        return (
            tuple(paths) if paths is not None else DEFAULT_DEAD_CODE_REFERENCES
        )


def find_project_root(start: Path | None = None) -> Path:
    """The nearest ancestor of ``start`` holding a pyproject.toml (or .git).

    Falls back to ``start`` itself so the linter still runs on loose trees.
    """
    current = (start or Path.cwd()).resolve()
    if current.is_file():
        current = current.parent
    for candidate in (current, *current.parents):
        if (candidate / "pyproject.toml").is_file() or (candidate / ".git").exists():
            return candidate
    return current


def load_config(
    root: Path | None = None, pyproject: Path | None = None
) -> LintConfig:
    """Build a :class:`LintConfig` from ``[tool.repro.lint]`` (if present).

    ``pyproject`` overrides the file location (for tests); by default the
    root's ``pyproject.toml`` is consulted and an absent file or section
    yields the pure-default configuration.
    """
    root = (root or find_project_root()).resolve()
    source = pyproject if pyproject is not None else root / "pyproject.toml"
    table: dict = {}
    if source.is_file():
        with open(source, "rb") as handle:
            document = tomllib.load(handle)
        table = document.get("tool", {}).get("repro", {}).get("lint", {})
        if not isinstance(table, dict):
            raise LintConfigError("[tool.repro.lint] must be a table")

    enabled = table.get("enable")
    if enabled is not None:
        if not isinstance(enabled, list) or not all(
            isinstance(name, str) for name in enabled
        ):
            raise LintConfigError("[tool.repro.lint] enable must be a string list")
        enabled = tuple(enabled)

    baseline = table.get("baseline", DEFAULT_BASELINE)
    if not isinstance(baseline, str):
        raise LintConfigError("[tool.repro.lint] baseline must be a string")

    default_paths = table.get("default_paths")
    if default_paths is None:
        default_paths = DEFAULT_PATHS
    elif isinstance(default_paths, list) and all(
        isinstance(path, str) for path in default_paths
    ):
        default_paths = tuple(default_paths)
    else:
        raise LintConfigError(
            "[tool.repro.lint] default_paths must be a string list"
        )

    rule_options = {
        key: value
        for key, value in table.items()
        if key not in _KNOWN_TOP_KEYS and isinstance(value, dict)
    }
    unknown = {
        key
        for key, value in table.items()
        if key not in _KNOWN_TOP_KEYS and not isinstance(value, dict)
    }
    if unknown:
        raise LintConfigError(
            f"unknown [tool.repro.lint] keys: {sorted(unknown)}"
        )

    return LintConfig(
        root=root,
        enabled=enabled,
        baseline_path=baseline,
        default_paths=tuple(default_paths),
        rule_options=rule_options,
    )
