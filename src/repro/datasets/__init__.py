"""Synthetic text-to-SQL benchmarks mirroring the paper's evaluation suite.

Builders:

- :func:`build_spider` — clean cross-domain benchmark (Spider-like);
- :func:`build_bird` — ambiguous schemas, wide tables, dirty values,
  optional external knowledge (BIRD-like);
- :func:`build_spider_variant` — Spider-Syn / -Realistic / -DK shifts;
- :func:`build_dr_spider` — the 17 Dr.Spider perturbation test sets;
- :func:`build_bank_financials` / :func:`build_aminer_simplified` —
  the two real-world domain datasets of §9.6.

:data:`DATASET_BUILDERS` maps each bundled set's own ``.name`` to its
builder; the CLI and the conformance suite select datasets through it.
"""

from functools import partial
from typing import Callable

from repro.datasets.base import SPLITS, Text2SQLDataset, Text2SQLExample
from repro.datasets.spider import build_spider
from repro.datasets.bird import build_bird
from repro.datasets.variants import SPIDER_VARIANTS, build_spider_variant
from repro.datasets.drspider import DR_SPIDER_PERTURBATIONS, build_dr_spider
from repro.datasets.domains import build_aminer_simplified, build_bank_financials

#: Every bundled gold set, keyed by its ``.name``, in reporting order:
#: the two benchmarks, the two domain corpora, the three Spider
#: variants and the seventeen Dr.Spider perturbations.
DATASET_BUILDERS: dict[str, Callable[[], Text2SQLDataset]] = {
    "spider": build_spider,
    "bird": build_bird,
    "bank_financials": build_bank_financials,
    "aminer_simplified": build_aminer_simplified,
    **{name: partial(build_spider_variant, name) for name in SPIDER_VARIANTS},
    **{
        f"dr-spider-{name}": partial(build_dr_spider, name)
        for names in DR_SPIDER_PERTURBATIONS.values()
        for name in names
    },
}

__all__ = [
    "DATASET_BUILDERS",
    "DR_SPIDER_PERTURBATIONS",
    "SPIDER_VARIANTS",
    "SPLITS",
    "Text2SQLDataset",
    "Text2SQLExample",
    "build_aminer_simplified",
    "build_bank_financials",
    "build_bird",
    "build_dr_spider",
    "build_spider",
    "build_spider_variant",
]
