"""Common dataset types."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.db.backends.sqlite import Database
from repro.errors import DatasetError

#: The example splits every :class:`Text2SQLDataset` carries.
SPLITS = ("train", "dev")


@dataclass(frozen=True)
class Text2SQLExample:
    """One (question, SQL) pair over a named database."""

    question: str
    sql: str
    db_id: str
    external_knowledge: str = ""

    def question_with_knowledge(self) -> str:
        """Question enriched with external knowledge, BIRD-style (§9.1.1)."""
        if not self.external_knowledge:
            return self.question
        return f"{self.question} ({self.external_knowledge})"


@dataclass
class Text2SQLDataset:
    """A benchmark: databases plus train/dev example splits.

    ``generated`` optionally keeps the semantic generation artifacts
    (:class:`repro.datasets.generator.GeneratedDatabase`) so variant
    builders can perturb questions knowing which phrases refer to which
    columns.
    """

    name: str
    databases: dict[str, Database]
    train: list[Text2SQLExample] = field(default_factory=list)
    dev: list[Text2SQLExample] = field(default_factory=list)
    generated: dict = field(default_factory=dict, repr=False)

    def split(self, name: str) -> list[Text2SQLExample]:
        """The examples of split ``name``, one of :data:`SPLITS`."""
        if name not in SPLITS:
            raise DatasetError(
                f"unknown split {name!r}; choose from {', '.join(SPLITS)}"
            )
        return getattr(self, name)

    def database_of(self, example: Text2SQLExample) -> Database:
        try:
            return self.databases[example.db_id]
        except KeyError:
            raise DatasetError(
                f"example references unknown database {example.db_id!r}"
            ) from None

    def validate(self) -> None:
        """Check every gold query actually executes on its database.

        Raises :class:`DatasetError` listing the first broken example.
        """
        for split_name in SPLITS:
            for index, example in enumerate(self.split(split_name)):
                database = self.database_of(example)
                if not database.is_executable(example.sql):
                    raise DatasetError(
                        f"{self.name}.{split_name}[{index}] gold SQL does not "
                        f"execute: {example.sql!r}"
                    )

    def lint(self, splits: tuple[str, ...] = ("train", "dev")):
        """Semantic-analysis audit of every gold query.

        Returns a :class:`repro.analysis.report.LintReport`.  Unlike
        :meth:`validate`, which executes each gold query, this is a
        purely static check — it catches queries that *would* execute
        but reference the schema incoherently (the drift mode renames
        and template edits introduce).
        """
        from repro.analysis.report import lint_dataset

        return lint_dataset(self, splits=splits)

    def summary(self) -> str:
        return (
            f"{self.name}: {len(self.databases)} databases, "
            f"{len(self.train)} train / {len(self.dev)} dev examples"
        )
