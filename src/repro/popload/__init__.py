"""Population-driven workload generation.

Offered load as a *process*: arrival streams produced by modeled user
populations (diurnal cycles, flash crowds, population windows) and Zipf
skew over sources. Everything here feeds the existing
``TrafficGenerator`` / ``Cluster`` entry points through the
:class:`ArrivalProcess` protocol, so every chip-, rack-, and
cluster-level experiment gets the new scenarios without touching its
driver.

See the README's "Population-driven load" section for the tour and
``ext-diurnal`` (:mod:`repro.experiments.diurnal`) for the headline
experiment.
"""

from .arrivals import (
    ArrivalProcess,
    ConstantRate,
    DiurnalRate,
    FlashCrowdRate,
    NonhomogeneousPoisson,
    PopulationProcess,
    RateProfile,
    StationaryPoisson,
    nonhomogeneous_poisson,
)
from .skew import zipf_weights

__all__ = [
    "ArrivalProcess",
    "StationaryPoisson",
    "NonhomogeneousPoisson",
    "PopulationProcess",
    "RateProfile",
    "ConstantRate",
    "DiurnalRate",
    "FlashCrowdRate",
    "nonhomogeneous_poisson",
    "zipf_weights",
]
