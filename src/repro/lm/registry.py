"""Managed lifecycle for pre-trained LMs and their corpora.

Pre-training is the expensive, deterministic step every parser shares;
earlier revisions memoized it in unbounded module-level dict globals
inside ``core/parser.py``.  :class:`LMRegistry` makes that lifecycle
explicit: a registry instance owns its corpora and pre-trained LMs,
``clear()`` releases them (tests, batch workers recycling memory), and
independent registries isolate parallel evaluations from each other.
The process-wide default registry keeps the old sharing behaviour for
ordinary use.

Provider routers (:mod:`repro.lm.providers`) are registry citizens
too: ``router_for`` caches one live router per (LM recipe, router
config, clock) so parsers sharing a topology share breaker state.
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
        self._routers: dict[tuple, "ProviderRouter"] = {}

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
        """The (cached) provider router fronting a model tier's LM.

        Routers are registry citizens like LMs: keyed by the LM recipe
        plus the (hashable, frozen) :class:`RouterConfig` plus the
        clock identity — a router carries live breaker state bound to
        one clock, so routers on different clocks must not be shared.
        """
        from repro.lm.providers.config import RouterConfig, build_router

        router_config = router_config if router_config is not None else RouterConfig()
        key = (
            (config.family, config.incremental, config.ngram_order),
            router_config,
            id(clock) if clock is not None else None,
        )
        if key not in self._routers:
            self._routers[key] = build_router(
                router_config, self.lm_for(config), clock=clock
            )
        return self._routers[key]

    def clear(self) -> None:
        """Drop every cached corpus, LM, and router (rebuilt on next use)."""
        self._lms.clear()
        self._corpora.clear()
        self._routers.clear()

    def __len__(self) -> int:
        return len(self._lms) + len(self._corpora) + len(self._routers)

    @property
    def stats(self) -> dict[str, int]:
        return {
            "lms": len(self._lms),
            "corpora": len(self._corpora),
            "routers": len(self._routers),
        }


#: Process-wide default: parsers share pre-training work unless handed
#: an isolated registry.
DEFAULT_LM_REGISTRY = LMRegistry()
