"""Ambient backscatter simulator for frequency-selective channels.

The receiver exploits the OFDM cyclic prefix to cancel the direct source
path, folds the cancelled block into a circular convolution, diagonalizes
it with a DFT, and detects the tag bit with a chi-square energy test.
"""

from .analysis import ber_approx, ber_exact, pdf_curves
from .detector import (
    ThresholdBracketError,
    decide,
    detection_snr,
    pdf_h0,
    pdf_h1,
    threshold_exact,
    threshold_for,
    threshold_paper,
)
from .harness import (
    BerResult,
    ExperimentSpec,
    build_spec,
    collect_statistics,
    emit_csv,
    load_config_file,
    parse_csv,
    run_experiment,
    run_pdf_curves,
    run_trial,
    trial_stream,
)
from .numerics import (
    RngStream,
    bessel_i,
    chi2_pdf,
    complex_gaussian,
    dft,
    gamma_fn,
    gaussian_q,
    noncentral_chi2_pdf,
    sin_power_integral,
)
from .phy import (
    ChannelSet,
    Frame,
    SystemConfig,
    draw_channels,
    generate_source_symbol,
    legacy_demodulate,
    observe,
    observe_components,
    simulate_frame,
    tag_gate,
    tag_receive,
)
from .receiver import (
    DetectionStatistic,
    cancel,
    decompose_statistic,
    extract_windows,
    fold,
    noise_power,
    process,
    test_statistic,
)

__version__ = "0.1.0"
