"""Section 9.7: inference latency and deployment requirements.

Measures wall-clock end-to-end latency (prompt construction through
execution-guided selection) per CodeS tier, next to the *simulated*
per-sample API latency of the closed prompting baselines.  Each tier
runs ``REPEATS`` times, each on fresh per-database engines; the table
shows the median and interquartile range of the per-sample means.  Reproduced
shape: latency grows with tier size but stays orders of magnitude below
the prompting pipelines' API round-trips.
"""

from repro.baselines import make_baseline
from repro.config import CODES_TIERS, get_model_config
from repro.eval.harness import evaluate_parser

LIMIT = 24
REPEATS = 5


def test_latency_per_tier(benchmark, spider, parsers, report, median_iqr):
    def run():
        rows = []
        for tier in CODES_TIERS:
            parser = parsers.sft(tier, spider)
            runs = []
            for _ in range(REPEATS):
                runs.append(evaluate_parser(parser, spider, limit=LIMIT).mean_latency_s)
            median, iqr = median_iqr(runs)
            rows.append(
                {
                    "model": f"SFT {tier}",
                    "params_B": get_model_config(tier).params_billions,
                    "latency s/sample": round(median, 4),
                    "IQR s": round(iqr, 4),
                    "source": f"measured, median of {REPEATS}",
                }
            )
        for name in ("din-sql-gpt-4", "chatgpt"):
            spec = make_baseline(name)
            rows.append(
                {
                    "model": name,
                    "params_B": ">=175",
                    "latency s/sample": spec.simulated_api_latency_s,
                    "IQR s": 0,
                    "source": "simulated API",
                }
            )
        report("latency_per_tier", rows, "§9.7 — inference latency per sample")
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    measured = [row for row in rows if row["source"] != "simulated API"]
    # Bigger tiers search more and are therefore slower (medians).
    assert (
        measured[-1]["latency s/sample"] >= measured[0]["latency s/sample"] * 0.8
    )
    # Local inference beats the prompting pipelines' API latency.
    api = [row for row in rows if row["source"] == "simulated API"]
    assert all(
        m["latency s/sample"] < a["latency s/sample"] for m in measured for a in api
    )
