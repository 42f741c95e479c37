"""Managed lifecycle for pre-trained LMs and their corpora.

Pre-training is the expensive, deterministic step every parser shares;
earlier revisions memoized it in unbounded module-level dict globals
inside ``core/parser.py``.  :class:`LMRegistry` makes that lifecycle
explicit: a registry instance owns its corpora and pre-trained LMs,
``clear()`` releases them (tests, batch workers recycling memory), and
independent registries isolate parallel evaluations from each other.
The process-wide default registry keeps the old sharing behaviour for
ordinary use.

Provider routers (:mod:`repro.lm.providers`) are not cached:
``router_for`` builds a fresh router over the registry's LM on every
call, so each parser owns its breaker state and its counters, and one
server's metrics never include another parser's calls.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.config import ModelConfig
from repro.lm.corpus import CorpusConfig, PretrainCorpus, build_corpus
from repro.lm.pretrain import IncrementalPretrainer, PretrainedLM, pretrain_base_lm

if TYPE_CHECKING:
    from repro.lm.providers.config import RouterConfig
    from repro.lm.providers.router import ProviderRouter
    from repro.reliability.clock import Clock


class LMRegistry:
    """Cache of pre-training artifacts keyed by recipe, with a lifecycle."""

    def __init__(self) -> None:
        self._lms: dict[tuple[str, bool, int], PretrainedLM] = {}
        self._corpora: dict[int, PretrainCorpus] = {}

    def corpus(self, seed: int = 0) -> PretrainCorpus:
        """The (cached) pre-training corpus for ``seed``."""
        if seed not in self._corpora:
            self._corpora[seed] = build_corpus(CorpusConfig(seed=seed))
        return self._corpora[seed]

    def lm_for(self, config: ModelConfig) -> PretrainedLM:
        """The (cached) pre-trained LM for a model tier."""
        key = (config.family, config.incremental, config.ngram_order)
        if key not in self._lms:
            corpus = self.corpus()
            base = pretrain_base_lm(
                config.family, order=config.ngram_order, corpus=corpus
            )
            if config.incremental:
                base = IncrementalPretrainer(corpus=corpus).run(base)
            self._lms[key] = base
        return self._lms[key]

    def router_for(
        self,
        config: ModelConfig,
        router_config: "RouterConfig | None" = None,
        clock: "Clock | None" = None,
    ) -> "ProviderRouter":
        """A new provider router fronting a model tier's (cached) LM.

        Each call builds its own router: a router carries live breaker
        state and counters bound to one clock, which one caller must
        not share with another.
        """
        from repro.lm.providers.config import RouterConfig, build_router

        return build_router(
            router_config if router_config is not None else RouterConfig(),
            self.lm_for(config),
            clock=clock,
        )

    def clear(self) -> None:
        """Drop every cached corpus and LM (rebuilt on next use)."""
        self._lms.clear()
        self._corpora.clear()

    def __len__(self) -> int:
        return len(self._lms) + len(self._corpora)


#: Process-wide default: every parser shares pre-training work through it.
DEFAULT_LM_REGISTRY = LMRegistry()
