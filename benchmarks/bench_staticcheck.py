"""Staticcheck engine cost: wall-time per rule over the real tree.

Two tables:

1. each registered rule run alone over ``src/repro`` (parsing
   amortized — the module set is loaded once and shared), plus the
   full registry in one pass.  Keeps the lint gate honest about which
   checker pays for the tree walk as rules accumulate: the deep
   checkers (STAGE001's helper fixpoint, LOCK001's summary expansion)
   should stay within an order of magnitude of the single-visitor
   ARCH rules.
2. the incremental cache: a cold run (every module analyzed, cache
   populated) versus a warm run (every incremental rule served from
   the cache).  Warm must be measurably faster AND byte-identical.

Every time is the median of ``ROUNDS`` passes, with the interquartile
range beside it.
"""

import time
from pathlib import Path

from repro.staticcheck import (
    REGISTRY,
    FindingCache,
    check_modules,
    load_tree,
    render_json,
    rules_fingerprint,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
TREE = REPO_ROOT / "src" / "repro"
ROUNDS = 5


def _timed_ms(fn):
    start = time.perf_counter()
    result = fn()
    return result, 1000 * (time.perf_counter() - start)


def test_staticcheck_rule_cost(benchmark, report, median_iqr):
    modules = load_tree(TREE)

    def row(rule_id, severity, runs):
        result = runs[-1][0]
        median, iqr = median_iqr([ms for _, ms in runs])
        return {
            "rule": rule_id,
            "severity": severity,
            "ms/pass": round(median, 2),
            "iqr ms": round(iqr, 2),
            "ms/file": round(median / len(modules), 4),
            "findings": len(result.findings) + result.suppressed,
        }, result

    def run():
        rows = []
        for rule_id in REGISTRY.ids():
            runs = [
                _timed_ms(
                    lambda: check_modules(modules, rules=REGISTRY.create([rule_id]))
                )
                for _ in range(ROUNDS)
            ]
            rows.append(row(rule_id, REGISTRY.get(rule_id).severity, runs)[0])
        runs = [
            _timed_ms(lambda: check_modules(modules, rules=REGISTRY.create()))
            for _ in range(ROUNDS)
        ]
        full_row, full = row("ALL", "-", runs)
        rows.append(full_row)
        # The gate itself: the real tree is clean under the full
        # registry (justified suppressions aside).
        assert not full.findings, [f.render() for f in full.findings]
        report(
            "staticcheck_rule_cost",
            rows,
            f"staticcheck — per-rule wall time over src/repro "
            f"({len(modules)} files, median and IQR of {ROUNDS})",
        )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    by_rule = {row["rule"]: row for row in rows}
    # Every registered rule got a row, plus the whole-registry pass.
    assert set(by_rule) == set(REGISTRY.ids()) | {"ALL"}
    # Running everything at once should not cost much more than the
    # individual passes summed — rules share the parsed module set.
    individual_ms = sum(
        row["ms/pass"] for row in rows if row["rule"] != "ALL"
    )
    assert by_rule["ALL"]["ms/pass"] <= individual_ms * 1.5 + 50.0


def test_staticcheck_cache_cold_vs_warm(benchmark, report, median_iqr, tmp_path):
    modules = load_tree(TREE)
    fingerprint = rules_fingerprint(
        [REGISTRY.get(rule_id) for rule_id in REGISTRY.ids()]
    )
    cache_path = tmp_path / "cache.json"

    def timed():
        cache = FindingCache(cache_path, fingerprint)
        result, elapsed_ms = _timed_ms(
            lambda: check_modules(modules, rules=REGISTRY.create(), cache=cache)
        )
        cache.save()
        return result, elapsed_ms

    def run():
        colds, warms = [], []
        for _ in range(ROUNDS):
            cache_path.unlink(missing_ok=True)
            colds.append(timed())
            warms.append(timed())
        cold, warm = colds[0][0], warms[0][0]
        cold_ms, cold_iqr = median_iqr([ms for _, ms in colds])
        warm_ms, warm_iqr = median_iqr([ms for _, ms in warms])
        rows = [
            {
                "run": "cold",
                "ms/pass": round(cold_ms, 2),
                "iqr ms": round(cold_iqr, 2),
                "cache hits": cold.cache_hits,
                "cache misses": cold.cache_misses,
            },
            {
                "run": "warm",
                "ms/pass": round(warm_ms, 2),
                "iqr ms": round(warm_iqr, 2),
                "cache hits": warm.cache_hits,
                "cache misses": warm.cache_misses,
            },
            {
                "run": "speedup",
                "ms/pass": round(cold_ms / max(warm_ms, 1e-9), 2),
                "iqr ms": "-",
                "cache hits": "-",
                "cache misses": "-",
            },
        ]
        report(
            "staticcheck_cache_cold_vs_warm",
            rows,
            f"staticcheck — incremental cache over src/repro "
            f"({len(modules)} files, median and IQR of {ROUNDS} "
            "alternating cold/warm passes)",
        )
        # warm output is byte-identical to cold…
        assert render_json(warm) == render_json(cold)
        # …every incremental (module, rule) pair was served from cache…
        assert warm.cache_misses == 0 and warm.cache_hits > 0
        # …and skipping the analyses actually saves wall time.
        assert warm_ms < cold_ms
        return rows

    benchmark.pedantic(run, rounds=1, iterations=1)
