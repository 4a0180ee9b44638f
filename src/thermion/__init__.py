"""Numerical checks, at finite truncation, of the positive-commutator
spectral analysis of a bound state coupled to a thermal Bose field."""

from .params import FormFactor, Kernel, ModelParams, PowerExpProfile
from .lattice import (CompositeBasis, EnergyGrid, FieldGrid, FockBasis,
                      ParticleBasis, build_bases)
from .reports import BoundReport, Report, TimeSeries

__all__ = [
    "BoundReport", "CompositeBasis", "EnergyGrid", "FieldGrid", "FockBasis",
    "FormFactor", "Kernel", "ModelParams", "ParticleBasis",
    "PowerExpProfile", "Report", "TimeSeries", "build_bases",
]

__version__ = "0.1.0"
