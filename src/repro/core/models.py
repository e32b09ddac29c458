"""Model variants of the red-blue pebble game and their cost structure.

This module is the machine-readable form of **Table 1** of the paper:

=========  ========  ========  =============  ========  =========================
Model      Blue->red Red->blue Compute        Delete    Description
=========  ========  ========  =============  ========  =========================
base       1         1         0              0         Baseline model (Section 1)
oneshot    1         1         0, inf, ...    0         Each node computable once
nodel      1         1         0              inf       Pebbles cannot be deleted
compcost   1         1         epsilon        0         Computation costs epsilon
=========  ========  ========  =============  ========  =========================

"inf" entries are encoded as legality flags rather than infinite costs:
``recompute_allowed`` (False exactly for oneshot) and ``delete_allowed``
(False exactly for nodel).  All finite costs are exact
:class:`fractions.Fraction` values so that compcost accounting carries no
floating-point error.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Union

__all__ = [
    "Model",
    "CostModel",
    "DEFAULT_EPSILON",
    "cost_model_for",
    "ALL_MODELS",
]

#: The paper motivates epsilon ~= 1/100: "the cache is roughly 100 times
#: faster than a bus access".  Used as the default compute cost in compcost.
DEFAULT_EPSILON = Fraction(1, 100)

NumberLike = Union[int, float, str, Fraction]


class Model(enum.Enum):
    """The four red-blue pebbling variants studied in the paper."""

    BASE = "base"
    ONESHOT = "oneshot"
    NODEL = "nodel"
    COMPCOST = "compcost"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value

    @classmethod
    def parse(cls, value: "Model | str") -> "Model":
        """Accept either a :class:`Model` or its string name (case-insensitive)."""
        if isinstance(value, Model):
            return value
        try:
            return cls(str(value).lower())
        except ValueError:
            names = ", ".join(m.value for m in cls)
            raise ValueError(f"unknown model {value!r}; expected one of: {names}") from None


#: iteration order used by tables and sweeps (matches the paper's tables).
ALL_MODELS = (Model.BASE, Model.ONESHOT, Model.NODEL, Model.COMPCOST)


@dataclass(frozen=True)
class CostModel:
    """Per-operation prices and legality flags of one model variant.

    Attributes
    ----------
    model:
        Which variant this cost model describes.
    load_cost / store_cost:
        Price of Step 1 (blue->red) and Step 2 (red->blue).  Always 1 in the
        paper; kept configurable for sensitivity experiments.
    compute_cost:
        Price of Step 3.  0 everywhere except compcost, where it is epsilon.
    delete_cost:
        Price of Step 4 when it is legal.  Always 0 in the paper.
    recompute_allowed:
        False exactly for oneshot: Step 3 may fire at most once per node.
    delete_allowed:
        False exactly for nodel: Step 4 is unavailable.
    """

    model: Model
    load_cost: Fraction = Fraction(1)
    store_cost: Fraction = Fraction(1)
    compute_cost: Fraction = Fraction(0)
    delete_cost: Fraction = Fraction(0)
    recompute_allowed: bool = True
    delete_allowed: bool = True

    def __post_init__(self) -> None:
        for name in ("load_cost", "store_cost", "compute_cost", "delete_cost"):
            value = getattr(self, name)
            if not isinstance(value, Fraction):
                object.__setattr__(self, name, Fraction(value))
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, got {value}")

    @property
    def transfer_cost(self) -> Fraction:
        """Price of one store+load round trip (the canonical 'spill' cost)."""
        return self.load_cost + self.store_cost

    def table1_row(self) -> Dict[str, str]:
        """Render this model as a row of the paper's Table 1."""
        if not self.recompute_allowed:
            compute = f"{self.compute_cost},inf,inf,..."
        else:
            compute = str(self.compute_cost)
        return {
            "model": self.model.value,
            "blue_to_red": str(self.load_cost),
            "red_to_blue": str(self.store_cost),
            "compute": compute,
            "delete": str(self.delete_cost) if self.delete_allowed else "inf",
        }


def cost_model_for(
    model: "Model | str",
    *,
    epsilon: NumberLike = DEFAULT_EPSILON,
) -> CostModel:
    """Build the paper's :class:`CostModel` for a given variant.

    Parameters
    ----------
    model:
        The variant, as a :class:`Model` or its string name.
    epsilon:
        Compute cost used by the compcost variant.  Must satisfy
        0 < epsilon < 1 (the paper's constraint); ignored by other models.

    >>> cost_model_for("oneshot").recompute_allowed
    False
    >>> cost_model_for("compcost").compute_cost
    Fraction(1, 100)
    """
    model = Model.parse(model)
    if model is Model.BASE:
        return CostModel(model=model)
    if model is Model.ONESHOT:
        return CostModel(model=model, recompute_allowed=False)
    if model is Model.NODEL:
        return CostModel(model=model, delete_allowed=False)
    if model is Model.COMPCOST:
        eps = Fraction(epsilon)
        if not (0 < eps < 1):
            raise ValueError(f"compcost requires 0 < epsilon < 1, got {eps}")
        return CostModel(model=model, compute_cost=eps)
    raise AssertionError(f"unhandled model {model!r}")  # pragma: no cover
