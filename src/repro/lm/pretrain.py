"""Base and incremental pre-training drivers (paper §5.2).

A :class:`PretrainedLM` wraps the fast n-gram sequence prior together
with provenance metadata.  Base pre-training mixes corpora according to
the model *family* (StarCoder-like: mostly code with a little SQL;
Llama-like: mostly NL; CodeGen-like: code only).  Incremental
pre-training then continues training on the SQL-centric corpus with the
paper's epoch recipe — two epochs of SQL-related data and one epoch
each of NL-related and NL-to-code data — turning a StarCoder-tier base
into a CodeS-tier model.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.errors import SQLSyntaxError, TrainingError
from repro.lm.corpus import CorpusConfig, PretrainCorpus, build_corpus
from repro.lm.ngram import NgramLanguageModel
from repro.sqlgen.ast import Query
from repro.sqlgen.parser import parse_sql
from repro.sqlgen.skeleton import skeleton_of_query

#: Base-mix recipes per model family: fractions of (sql, nl, nl2code, code).
FAMILY_MIXES: dict[str, tuple[float, float, float, float]] = {
    # StarCoder: 80+ languages, SQL is a tiny fraction.
    "starcoder": (0.10, 0.10, 0.10, 0.70),
    # CodeGen: code-heavy, almost no SQL or NL.
    "codegen": (0.03, 0.05, 0.07, 0.85),
    # Llama-style general LM: mostly natural language.
    "llama": (0.02, 0.78, 0.05, 0.15),
    # Closed frontier models (GPT-4/ChatGPT/Codex/PaLM/Claude): trained
    # on everything, including essentially all public SQL.
    "closed": (1.0, 0.9, 1.0, 0.6),
}


def _sql_bodies(nl2code_docs: list[str]) -> list[str]:
    """Extract the SQL halves of NL-to-code pair documents."""
    bodies: list[str] = []
    for doc in nl2code_docs:
        __, __, body = doc.partition("\n")
        if body.upper().startswith("SELECT"):
            bodies.append(body)
    return bodies


@dataclass
class PretrainedLM:
    """An n-gram sequence prior plus its training provenance.

    ``seen_sql`` records the SQL documents the model was trained on —
    the parser's skeleton bank (its "SQL knowledge") is mined from this
    list, so a SQL-heavier pre-training mix genuinely widens the bank.
    """

    name: str
    model: NgramLanguageModel
    family: str
    incremental: bool = False
    history: list[str] = field(default_factory=list)
    seen_sql: list[str] = field(default_factory=list)
    _skeleton_banks: dict[int, tuple[Query, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _known_skeletons: dict[int, frozenset[str]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def skeleton_bank(self, capacity: int) -> tuple[Query, ...]:
        """The ``capacity`` most frequent SQL skeletons in ``seen_sql``.

        One representative query (the first seen) per skeleton, most
        frequent first.  Mined once per capacity and shared by every
        parser over this LM: tiers that share an LM recipe keep banks of
        different sizes.  Only the truncated bank is kept, as a tuple of
        frozen queries; ``seen_sql`` must not change once it is mined.
        """
        bank = self._skeleton_banks.get(capacity)
        if bank is None:
            counts: Counter[str] = Counter()
            representative: dict[str, Query] = {}
            for sql in self.seen_sql:
                try:
                    query = parse_sql(sql)
                except SQLSyntaxError:
                    continue
                skeleton = skeleton_of_query(query)
                counts[skeleton] += 1
                representative.setdefault(skeleton, query)
            ranked = [skeleton for skeleton, _ in counts.most_common()]
            bank = self._skeleton_banks[capacity] = tuple(
                representative[skeleton] for skeleton in ranked[:capacity]
            )
        return bank

    def known_skeletons(self, capacity: int) -> frozenset[str]:
        """The skeleton keys of :meth:`skeleton_bank`, derived once per
        capacity on first use: only few-shot requests read them."""
        known = self._known_skeletons.get(capacity)
        if known is None:
            known = self._known_skeletons[capacity] = frozenset(
                map(skeleton_of_query, self.skeleton_bank(capacity))
            )
        return known

    def score(self, text: str) -> float:
        """Length-normalized log probability (higher is more fluent)."""
        return self.model.mean_log_prob(text)

    def perplexity(self, texts: list[str]) -> float:
        return self.model.perplexity(texts)


def _take(documents: list[str], fraction: float) -> list[str]:
    count = int(round(len(documents) * fraction))
    return documents[:count]


def pretrain_base_lm(
    family: str,
    order: int = 3,
    corpus: PretrainCorpus | None = None,
    name: str | None = None,
) -> PretrainedLM:
    """Pre-train a base LM with the family's corpus mix."""
    if family not in FAMILY_MIXES:
        raise TrainingError(
            f"unknown family {family!r}; expected one of {sorted(FAMILY_MIXES)}"
        )
    corpus = corpus or build_corpus(CorpusConfig())
    sql_frac, nl_frac, nl2code_frac, code_frac = FAMILY_MIXES[family]
    model = NgramLanguageModel(order=order)
    sql_slice = _take(corpus.sql, sql_frac)
    nl2code_slice = _take(corpus.nl2code, nl2code_frac)
    model.fit(sql_slice)
    model.fit(_take(corpus.nl, nl_frac))
    model.fit(nl2code_slice)
    model.fit(_take(corpus.base_code, code_frac))
    return PretrainedLM(
        name=name or f"{family}-base",
        model=model,
        family=family,
        history=[f"base mix {FAMILY_MIXES[family]}"],
        seen_sql=[*sql_slice, *_sql_bodies(nl2code_slice)],
    )


class IncrementalPretrainer:
    """Continues pre-training a base LM on the SQL-centric corpus.

    Epoch recipe per the paper: SQL-related x2, NL-related x1,
    NL-to-code x1.
    """

    def __init__(
        self,
        corpus: PretrainCorpus | None = None,
        sql_epochs: int = 2,
        nl_epochs: int = 1,
        nl2code_epochs: int = 1,
    ):
        if min(sql_epochs, nl_epochs, nl2code_epochs) < 0:
            raise TrainingError("epoch counts must be non-negative")
        self.corpus = corpus or build_corpus(CorpusConfig())
        self.sql_epochs = sql_epochs
        self.nl_epochs = nl_epochs
        self.nl2code_epochs = nl2code_epochs

    def run(self, base: PretrainedLM, name: str | None = None) -> PretrainedLM:
        """Incrementally pre-train ``base`` in place and re-label it."""
        if self.sql_epochs:
            base.model.fit(self.corpus.sql, weight=self.sql_epochs)
        if self.nl_epochs:
            base.model.fit(self.corpus.nl, weight=self.nl_epochs)
        if self.nl2code_epochs:
            base.model.fit(self.corpus.nl2code, weight=self.nl2code_epochs)
        base.history.append(
            f"incremental sql x{self.sql_epochs}, nl x{self.nl_epochs}, "
            f"nl2code x{self.nl2code_epochs}"
        )
        seen_sql = list(base.seen_sql)
        if self.sql_epochs:
            seen_sql.extend(self.corpus.sql)
        if self.nl2code_epochs:
            seen_sql.extend(_sql_bodies(self.corpus.nl2code))
        return PretrainedLM(
            name=name or base.name.replace("-base", "") + "-codes",
            model=base.model,
            family=base.family,
            incremental=True,
            history=list(base.history),
            seen_sql=seen_sql,
        )
