"""A seeded stand-in for the GPT-3.5 calls in the augmentation pipeline.

The paper prompts GPT-3.5 three ways (Figure 5): to imagine new user
questions in the style of a few annotated ones, to write SQL for those
questions given the DDL, and to refine stiff templated questions into
natural phrasing.  Offline, :class:`SyntheticLLM` provides the same
three capabilities deterministically:

- *question generation* samples the question grammar over the target
  database, style-conditioned on the seed questions' template mix;
- *SQL writing* runs a GPT-3.5-tier prompting parser (so, like the real
  API, it sometimes writes wrong SQL — augmentation noise is real);
- *question refinement* applies the paraphrase machinery (carriers,
  synonym swaps) with a temperature-controlled intensity.
"""

from __future__ import annotations

import random

from repro.datasets.base import Text2SQLExample
from repro.datasets.generator import GeneratedDatabase
from repro.datasets.perturb import (
    CARRIER_PHRASES,
    KEYWORD_SYNONYMS,
    _replace_words,
)
from repro.datasets.templates import sample_question_sql
from repro.db.backends.sqlite import Database
from repro.errors import GenerationError


class SyntheticLLM:
    """Deterministic GPT-3.5 stand-in for the augmentation prompts."""

    def __init__(self, seed: int = 0, temperature: float = 0.8):
        if not 0.0 <= temperature <= 2.0:
            raise ValueError(f"temperature must lie in [0, 2], got {temperature}")
        self._rng = random.Random(f"synthetic-llm:{seed}")
        self.temperature = temperature
        self._parser = None

    # -- Figure 5(a), stage 1: new questions in the users' style -----------

    def generate_questions(
        self,
        seed_examples: list[Text2SQLExample],
        gdb: GeneratedDatabase,
        n: int,
    ) -> list[str]:
        """Produce ``n`` new questions mimicking the seeds' intent mix.

        The seeds are shuffled per draw and a high temperature widens
        the template distribution beyond what the seeds cover — the
        paper's recipe for diverse but user-faithful questions.
        """
        from repro.sqlgen.skeleton import try_extract_skeleton

        seed_skeletons = {
            try_extract_skeleton(example.sql) for example in seed_examples
        }
        seed_skeletons.discard(None)
        questions: list[str] = []
        attempts = 0
        while len(questions) < n and attempts < n * 20:
            attempts += 1
            shuffled = list(seed_examples)
            self._rng.shuffle(shuffled)  # prompt-order diversity (§7)
            explore = self._rng.random() < self.temperature * 0.5
            template_id = None if explore else None
            pair = sample_question_sql(gdb, self._rng, template_id=template_id)
            if pair is None:
                continue
            if not explore and seed_skeletons:
                skeleton = try_extract_skeleton(pair.sql)
                if skeleton not in seed_skeletons:
                    continue
            if pair.question not in questions:
                questions.append(pair.question)
        return questions

    # -- Figure 5(a), stage 2: SQL for a generated question ------------------

    def write_sql(self, question: str, database: Database) -> str:
        """Write SQL for ``question`` — with GPT-3.5's imperfection."""
        if self._parser is None:
            from repro.baselines.registry import CLOSED_MODELS
            from repro.core.parser import CodeSParser

            config, _ = CLOSED_MODELS["gpt-3.5"]
            self._parser = CodeSParser(config=config)
        try:
            result = self._parser.generate(question, database, demonstrations=[])
        except GenerationError:
            return "SELECT 1"
        return result.sql

    # -- Figure 5(b): refine a templated question ----------------------------

    def refine_question(
        self, templated_question: str, name_map: dict[str, str] | None = None
    ) -> str:
        """Turn a stiff templated question into natural phrasing.

        ``name_map`` translates raw schema identifiers to their human
        meaning ("c4" -> "currency") — the naturalization the paper's
        GPT-3.5 refinement performs with the DDL in its prompt.
        """
        question = templated_question
        if name_map:
            question = _replace_words(
                question,
                {name: phrase for name, phrase in name_map.items() if name != phrase},
                self._rng,
            )
        if self._rng.random() < self.temperature * 0.6:
            question = _replace_words(
                question, KEYWORD_SYNONYMS, self._rng, probability=0.4
            )
        if self._rng.random() < self.temperature * 0.5:
            carrier = self._rng.choice(CARRIER_PHRASES)
            body = question[0].lower() + question[1:] if question else question
            question = f"{carrier} {body.rstrip('.?')}?"
        # Clean templated artifacts ("the the", double spaces).
        question = " ".join(question.replace(" the the ", " the ").split())
        return question
