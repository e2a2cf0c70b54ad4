"""Energy, power and area models (Table III, Figure 16)."""

from repro.energy.constants import (
    AreaConstants,
    MemoryEnergyConstants,
    PowerConstants,
)
from repro.energy.model import EnergyBreakdown, EnergyModel, EngineProfile

__all__ = [
    "PowerConstants",
    "MemoryEnergyConstants",
    "AreaConstants",
    "EnergyModel",
    "EnergyBreakdown",
    "EngineProfile",
]
