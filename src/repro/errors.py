"""Exception hierarchy for the repro package.

Every error raised intentionally by this library derives from
:class:`ReproError`, so callers can catch library failures without also
swallowing programming mistakes such as ``TypeError``.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SQLSyntaxError(ReproError):
    """Raised when a SQL string cannot be tokenized or parsed."""

    def __init__(self, message: str, sql: str = "", position: int = -1):
        super().__init__(message)
        self.sql = sql
        self.position = position


class SchemaError(ReproError):
    """Raised for malformed or inconsistent database schemas."""


class ExecutionError(ReproError):
    """Raised when executing a SQL query against a database fails."""


class DeadlineExceededError(ExecutionError, TimeoutError):
    """Raised when a wall-clock deadline expires mid-operation.

    Subclasses :class:`ExecutionError` (timeouts are a kind of execution
    failure, so legacy ``except ExecutionError`` paths keep working) and
    the builtin :class:`TimeoutError` (so generic timeout handling sees
    it too).
    """

    def __init__(self, message: str, elapsed_s: float = 0.0, budget_s: float = 0.0):
        super().__init__(message)
        self.elapsed_s = elapsed_s
        self.budget_s = budget_s


class CircuitOpenError(ReproError):
    """Raised when a circuit breaker refuses a call in its open state."""


class PromptBudgetError(ReproError):
    """Raised when a prompt cannot fit the model's context budget."""


class TrainingError(ReproError):
    """Raised when a training routine receives unusable inputs."""


class GenerationError(ReproError):
    """Raised when the parser cannot produce any SQL candidate."""


class ScoreRangeError(ReproError):
    """Raised when a ranking feature's value lies outside its declared range."""


class ProviderError(ReproError):
    """Base class for LM provider call failures (repro.lm.providers)."""


class ProviderFaultError(ProviderError):
    """Raised when a provider call fails outright (5xx-style fault).

    ``latency_s`` is the simulated time the failing call occupied (a
    remote fault still costs a network round-trip).
    """

    def __init__(self, message: str, latency_s: float = 0.0):
        super().__init__(message)
        self.latency_s = latency_s


class ProviderTimeoutError(ProviderError, TimeoutError):
    """Raised when a provider call exceeds its simulated timeout.

    ``latency_s`` reports how long the call occupied before timing out
    — the router charges that time to the clock even though the call
    produced nothing.
    """

    def __init__(self, message: str, latency_s: float = 0.0):
        super().__init__(message)
        self.latency_s = latency_s


class AllProvidersOpenError(ProviderError):
    """Raised when every provider's circuit breaker rejects a call.

    The serving layer maps this to the ``ProviderShed`` outcome: the
    request never reached a model, so it is shed rather than failed.
    """


class ServingError(ReproError):
    """Raised on serving-layer lifecycle misuse (e.g. double start)."""


class DatasetError(ReproError):
    """Raised when a benchmark dataset cannot be built or loaded."""


class CheckpointError(ReproError):
    """Raised when a model checkpoint name or file is invalid."""
