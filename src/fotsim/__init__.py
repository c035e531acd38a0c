"""Simulator and analysis toolkit for time-reversal fiber-optic time sync."""

__version__ = "0.1.0"

from .access import AccessNode, NodeObservation, observe_round, tap_times
from .calibration import (
    CalibrationSet,
    calibrate_delay_unit,
    calibrate_hardware_delay,
    corrected_offset,
)
from .channel import (
    Direction,
    FluctuationSpec,
    HardwareDelays,
    LinkModel,
    accumulated_dispersion,
    asymmetry,
    one_way_delay,
)
from .errors import (
    ConfigError,
    NegativeT3Error,
    NonCausalError,
    ProtocolError,
    ReversalOverflowError,
    ScenarioParseError,
    ValidationError,
)
from .protocol import (
    ProtocolConfig,
    SyncRoundResult,
    TicModel,
    compute_reversal_delay,
    run_rounds,
    run_session,
    sync_round,
    tdm_admission,
    tracking_error_series,
    two_way_offset,
)
from .stability import StabilityCurve, adev, mdev, slope, tdev, tdev_bruteforce
from .timebase import (
    ClockModel,
    NoiseProfile,
    TimeErrorSeries,
    synthesize_time_error_series,
)
