"""Photon statistics and beam-splitter entanglement of photon-added nonlinear
coherent states, with certified adaptive truncation of the Fock series.

The extended-precision reference path lives in ``fockseries.oracle`` and is
not imported here, so the package and its CLI load without mpmath."""

from ._version import __version__
from .entangle import (
    BeamSplitterSetting,
    EntanglementResult,
    JointAmplitudes,
    linear_entropy,
    reduced_purity,
    split,
)
from .errors import (
    DimensionTooLarge,
    FockSeriesError,
    HardCapExceeded,
    InvalidParameter,
    UnnormalizedInput,
)
from .series import (
    DEFAULT_HARD_CAP,
    DEFAULT_REL_TOL,
    AdaptiveTruncation,
    FixedTruncation,
    PhotonStatistics,
    TruncatedSeries,
    TruncationPolicy,
    log_weight,
    normalization_log,
    photon_distribution,
    photon_statistics,
    truncate,
)
from .states import StateSpec, penson_solomon_state
from .sweep import (
    OBSERVABLES,
    PRESETS,
    SweepRequest,
    parse_policy,
    run_preset,
    run_sweep,
)

__all__ = [
    "__version__",
    "AdaptiveTruncation",
    "BeamSplitterSetting",
    "DEFAULT_HARD_CAP",
    "DEFAULT_REL_TOL",
    "DimensionTooLarge",
    "EntanglementResult",
    "FixedTruncation",
    "FockSeriesError",
    "HardCapExceeded",
    "InvalidParameter",
    "JointAmplitudes",
    "OBSERVABLES",
    "PRESETS",
    "PhotonStatistics",
    "StateSpec",
    "SweepRequest",
    "TruncatedSeries",
    "TruncationPolicy",
    "UnnormalizedInput",
    "linear_entropy",
    "log_weight",
    "normalization_log",
    "parse_policy",
    "penson_solomon_state",
    "photon_distribution",
    "photon_statistics",
    "reduced_purity",
    "run_preset",
    "run_sweep",
    "split",
    "truncate",
]
