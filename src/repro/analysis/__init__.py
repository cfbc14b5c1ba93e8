"""Performance model, calibration and experiment harnesses."""

from repro.analysis.calibration import (
    LANAI_4_3_SYSTEM,
    LANAI_7_2_SYSTEM,
    SystemCalibration,
)
from repro.analysis.experiments import (
    BarrierMeasurement,
    best_gb_dimension,
    measure_barrier,
)
from repro.analysis.model import BarrierModel, ModelParams
from repro.analysis.stats import LatencyStats, summarize
from repro.analysis.tables import format_table

__all__ = [
    "BarrierMeasurement",
    "BarrierModel",
    "LANAI_4_3_SYSTEM",
    "LANAI_7_2_SYSTEM",
    "LatencyStats",
    "ModelParams",
    "SystemCalibration",
    "best_gb_dimension",
    "format_table",
    "measure_barrier",
    "summarize",
]
