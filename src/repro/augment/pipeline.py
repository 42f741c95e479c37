"""End-to-end bi-directional augmentation for one new-domain database."""

from __future__ import annotations

from repro.analysis.analyzer import SemanticAnalyzer
from repro.analysis.catalog import SchemaCatalog
from repro.analysis.diagnostics import has_errors
from repro.analysis.equivalence import canonical_key_sql
from repro.augment.question2sql import QuestionToSQLAugmenter
from repro.augment.sql2question import SQLToQuestionAugmenter
from repro.augment.synthetic_llm import SyntheticLLM
from repro.datasets.base import Text2SQLDataset, Text2SQLExample
from repro.db.backends.sqlite import Database
from repro.errors import DatasetError


def admit_clean_pairs(
    pairs: list[Text2SQLExample], database: Database
) -> list[Text2SQLExample]:
    """Admission gate for the augmentation pool.

    Synthetic pairs whose SQL lints with error-tier diagnostics against
    ``database``'s schema catalog are rejected: admitting them would
    teach the parser to emit hallucinated or ill-typed SQL.  Warnings
    (off-FK joins, out-of-subset SQL) pass through.
    """
    analyzer = SemanticAnalyzer(SchemaCatalog.from_database(database))
    return [
        pair for pair in pairs if not has_errors(analyzer.analyze_sql(pair.sql))
    ]


def dedupe_canonical(pairs: list[Text2SQLExample]) -> list[Text2SQLExample]:
    """Drop pairs whose (question, canonical SQL) identity already appeared.

    Surface-variant SQL duplicates — reordered conjuncts, BETWEEN vs.
    range spellings, alias noise — survive string-level dedup but teach
    the parser nothing new; keying on
    :func:`~repro.analysis.equivalence.canonical_key_sql` collapses
    them.  The question rides along in the key so distinct phrasings of
    the same SQL (paraphrase value for retrieval) are kept.
    """
    seen: set[tuple[str, str]] = set()
    unique: list[Text2SQLExample] = []
    for pair in pairs:
        key = (" ".join(pair.question.split()).lower(), canonical_key_sql(pair.sql))
        if key in seen:
            continue
        seen.add(key)
        unique.append(pair)
    return unique


def augment_domain(
    dataset: Text2SQLDataset,
    n_question_to_sql: int = 60,
    n_sql_to_question: int = 90,
    seed: int = 0,
) -> list[Text2SQLExample]:
    """Build an augmented training set for a new-domain dataset.

    ``dataset.train`` plays the role of the few manually annotated seed
    pairs; the result combines authentic (question-to-SQL) and generic
    (SQL-to-question) pairs, plus the seeds themselves — "authenticity
    and broad applicability" (§7).  Every synthetic pair passes the
    :func:`admit_clean_pairs` semantic gate and canonical-key dedup
    (:func:`dedupe_canonical`) before joining the pool; the seeds are
    trusted as-is and stay verbatim at the front.
    """
    if len(dataset.databases) != 1:
        raise DatasetError("domain augmentation expects a single-database dataset")
    db_id = next(iter(dataset.databases))
    gdb = dataset.generated.get(db_id)
    if gdb is None:
        raise DatasetError("domain augmentation needs the generated-database artifacts")

    llm = SyntheticLLM(seed=seed)
    authentic = QuestionToSQLAugmenter(llm).augment(
        dataset.train, gdb, n_question_to_sql
    )
    generic = SQLToQuestionAugmenter(llm, seed=seed).augment(gdb, n_sql_to_question)
    admitted = dedupe_canonical(
        admit_clean_pairs([*authentic, *generic], gdb.database)
    )
    return [*dataset.train, *admitted]
