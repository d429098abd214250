"""Pump-switched quantum signal demultiplexer simulation toolkit.

A seedable, desk-scale model of a microring entangled-pair source
multiplexed on the ITU grid, sum-frequency channel selection in
periodically poled lithium niobate, two-interferometer fringe
measurements, and the full photon-counting chain (losses, dark counts,
dead time, coincidence histograms, visibility and CAR analysis).
"""

from .analysis import (
    CarEstimate,
    FringePoint,
    FringeScan,
    VisibilityResult,
    car_from_histogram,
    car_from_windows,
    fit_visibility,
    visibility_minmax,
    visibility_report,
)
from .channel_plan import (
    ChannelPair,
    ItuChannel,
    build_plan,
    channel_frequency,
    channel_wavelength,
    paired_channel,
)
from .config import ConfigError, baseline_dict, build_config, config_digest, load_config
from .detection import (
    DetectionArm,
    DetectorSpec,
    LossEntry,
    LossLedger,
    apply_detector,
    car_curve,
    coincidence_rates,
    loss_report,
)
from .events import (
    CoincidenceConfig,
    CoincidenceHistogram,
    EventStream,
    central_window_counts,
    histogram,
    read_streams,
    write_streams,
)
from .franson import (
    FringeModel,
    UmiSpec,
    fringe_expectation,
    outcome_distribution,
    phase_from_temperature,
    temperature_tuning_period_k,
    tuning_consistency_report,
)
from .montecarlo import (
    OperatingPoint,
    RunResult,
    ScenarioConfig,
    demux_crosstalk,
    detection_arms,
    fringe_scan,
    generate_run,
    operating_point,
)
from .ring_source import (
    RingSpectrumModel,
    SfwmRates,
    pair_correlation_time_ps,
    pair_rate,
    singles_rate,
    transmission,
)
from .sfg import (
    ConversionCurve,
    CrystalSpec,
    PumpLaser,
    SellmeierSet,
    UnaddressableChannelError,
    acceptance,
    acceptance_fwhm_ghz,
    phase_mismatch,
    power_efficiency,
    quantum_efficiency,
    relative_efficiency,
    sfg_wavelength,
    solve_pump_wavelength,
    solve_qpm_temperature,
)

__version__ = "0.1.0"
