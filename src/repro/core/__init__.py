"""The CodeS text-to-SQL parser: SFT, few-shot ICL, and generation.

Public entry point is :class:`CodeSParser`, which composes the prompt
builder (schema filter + value retriever + metadata), the skeleton
index, the slot-filling candidate generator, the LM-prior ranker and
the execution-guided beam — the full pipeline of the paper.
"""

from repro.core.retriever import DemonstrationRetriever
from repro.core.parser import CodeSParser, GenerationResult
from repro.core.ranking import lint_gated_order

__all__ = [
    "CodeSParser",
    "DemonstrationRetriever",
    "GenerationResult",
    "lint_gated_order",
]
