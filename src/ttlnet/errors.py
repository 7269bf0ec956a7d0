"""Exception types shared across the package."""


class TtlnetError(Exception):
    """Base class for all package errors."""


class ValidationError(TtlnetError):
    """An input value violates a structural invariant."""


class DimensionError(ValidationError):
    """Matrix or vector dimensions are incompatible."""


class NoStationaryDistributionError(TtlnetError):
    """The chain has no unique stationary distribution (reducible or defective)."""


class DivergentStoppingTimeError(TtlnetError):
    """The eviction stopping time has infinite mean (the TTL structurally never expires first)."""


class TopologyError(ValidationError):
    """A topology document is malformed (schema, cycles, dangling ids, bad splits)."""


class BudgetExceededError(TtlnetError):
    """A construction would exceed the configured state-space budget."""

    def __init__(self, node_id: str, dimension: int, budget: int, stage: str = "output"):
        self.node_id = node_id
        self.dimension = dimension
        self.budget = budget
        self.stage = stage
        super().__init__(
            f"state-space budget exceeded at node {node_id!r}: "
            f"{stage} dimension {dimension} > budget {budget}"
        )
