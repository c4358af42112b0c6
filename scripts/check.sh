#!/usr/bin/env bash
# Tier-1 gate: syntax, static analysis, then the full test suite — twice.
#
# The second pytest pass runs with --ff (failed-first): anything the
# first pass failed runs again at the *front* of the collection, in a
# fresh process.  A test that genuinely fails, fails twice; a test that
# only failed (or only passed) because an earlier test warmed a
# process-wide cache — the lru-cached scenario, the shared
# CorridorEngine, an obs session leaking out of a fixture — changes
# verdict between the passes and is exposed as ordering-dependent.
# Finally, the engine-equivalence property tests re-run standalone
# (cached results must match cache-free reconstruction exactly, even in
# a fresh interpreter).
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

# Fast syntax gate: every file must at least compile.
python -m compileall -q src

# Project linter (repro.lint): determinism, cache discipline, float and
# unit safety, obs timing discipline, plus the whole-program flow rules
# (shared-state, transitive-determinism, layering, dead-code).  Fails on
# any finding not covered by an inline pragma or the committed baseline
# (lint-baseline.json).  Starts cold (no cache file) so the cache gate
# below has a known-cold first run.
rm -f .lint-cache.json
python -m repro lint

# Layering gate: the module import graph must stay a DAG (the layering
# rule orders the tiers; this catches any cycle, tiered or not).
python -m repro lint graph --check-cycles > /dev/null

# Incremental-lint gate: the warm (cached) run and a cache-free run must
# report byte-identical findings — the content-hash cache may only skip
# work, never change the answer.  The first lint above left a fully
# populated .lint-cache.json, so this diff is warm-vs-cold.
if ! diff <(python -m repro lint --format json) \
          <(python -m repro lint --no-cache --format json); then
    echo "check.sh: cached lint output differs from cache-free lint" >&2
    exit 1
fi

# Full suite, then the ordering-independence pass.
python -m pytest -q
python -m pytest -q --ff

# Engine equivalence in a fresh interpreter.
python -m pytest -x -q tests/test_engine.py

# Kernel-equivalence gate: the columnar flat-array kernel must be
# byte-identical to the object kernel in every driver output.
for cmd in funnel timeline table1; do
    if ! diff <(python -m repro "$cmd" --kernel columnar) \
              <(python -m repro "$cmd" --kernel object); then
        echo "check.sh: '$cmd' differs between --kernel columnar and --kernel object" >&2
        exit 1
    fi
done

# Serve gate: a warm corridor analytics server must survive a seeded
# concurrent loadgen mix with zero errors, serve /rankings byte-identical
# to `table1 --format json`, and keep answering after a structured 400
# (see scripts/serve_smoke.py for the full contract).
python scripts/serve_smoke.py --requests 50 --clients 4

# Incremental-evolution gate: cursor-based snapshot resolution must be
# invisible in the output.  timeline (Fig 1 + Fig 2) is diffed against
# its --no-incremental (full fingerprint rescan) twin on both the paper
# grid and the dense monthly grid.
for step in "" "--step monthly"; do
    if ! diff <(python -m repro timeline $step) \
              <(python -m repro timeline $step --no-incremental); then
        echo "check.sh: timeline $step differs under --no-incremental" >&2
        exit 1
    fi
done

# Persistent-store gate: the on-disk cache store (repro.store) may only
# change speed, never bytes.  For each driver, three runs must agree:
# truly cold (no store), cold-with-store (first --cache-dir run,
# populating), and warm (second --cache-dir run, loading what the first
# published).  Each command gets its own store so a cache populated by
# one driver can't mask another's cold path.
store_dir=".repro-store-check"
for cmd in funnel timeline table1; do
    rm -rf "$store_dir"
    if ! diff <(python -m repro "$cmd") \
              <(python -m repro "$cmd" --cache-dir "$store_dir"); then
        echo "check.sh: '$cmd' differs between no-store and cold-with-store" >&2
        exit 1
    fi
    if ! diff <(python -m repro "$cmd") \
              <(python -m repro "$cmd" --cache-dir "$store_dir"); then
        echo "check.sh: '$cmd' differs between no-store and store-warmed" >&2
        exit 1
    fi
done
rm -rf "$store_dir"

# Multi-scenario gate: every determinism contract above must hold for
# *every* registered corridor, not just the paper's.  For each scenario
# and driver, a store-warmed rerun must agree with a no-store run
# (per-scenario fingerprints may share one store directory without
# cross-talk).
for scenario in europe2020 tokyo-singapore; do
    rm -rf "$store_dir"
    for cmd in funnel timeline table1; do
        if ! diff <(python -m repro "$cmd" --scenario "$scenario") \
                  <(python -m repro "$cmd" --scenario "$scenario" --cache-dir "$store_dir"); then
            echo "check.sh: '$cmd --scenario $scenario' differs between no-store and cold-with-store" >&2
            exit 1
        fi
        if ! diff <(python -m repro "$cmd" --scenario "$scenario") \
                  <(python -m repro "$cmd" --scenario "$scenario" --cache-dir "$store_dir"); then
            echo "check.sh: '$cmd --scenario $scenario' differs between no-store and store-warmed" >&2
            exit 1
        fi
    done
done
rm -rf "$store_dir"

# The hybrid corridor comparison must run end-to-end over every
# registered corridor (warm engines from the gates above keep it cheap).
python -m repro compare > /dev/null
