"""Model registry: six operational memory models, each a `WmmModel`."""

from __future__ import annotations

from typing import Union

from ..litmus import BoundTest, LitmusTest, bind
from .strong import PsoModel, ScModel, TsoModel
from .wmm import MachineState, RuleInstance, WmmModel
from .wmm_d import WmmDModel
from .wmm_s import WmmSModel

_MODEL_CLASSES: dict[str, type[WmmModel]] = {
    cls.model_id: cls
    for cls in (ScModel, TsoModel, PsoModel, WmmModel, WmmDModel, WmmSModel)
}

MODEL_IDS = tuple(_MODEL_CLASSES)


def build_model(model_id: str, test: Union[LitmusTest, BoundTest]) -> WmmModel:
    """Instantiate a model for one (already parsed) litmus test."""
    try:
        cls = _MODEL_CLASSES[model_id]
    except KeyError:
        raise ValueError(f"unknown model {model_id!r}; choose from {', '.join(MODEL_IDS)}")
    bound = test if isinstance(test, BoundTest) else bind(test)
    return cls(bound)


__all__ = [
    "MachineState", "RuleInstance", "MODEL_IDS", "build_model",
    "ScModel", "TsoModel", "PsoModel", "WmmModel", "WmmDModel", "WmmSModel",
]
