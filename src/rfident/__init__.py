"""Estimation-theoretic toolkit for RF hardware-impairment fingerprints:
identifiability bounds, burst simulation, bound-attainment validation,
feature extraction, and identifiability-weighted authentication."""

from .constellation import (
    ConfigError,
    Constellation,
    DirectionalSensitivity,
    InvalidConstellationError,
    Moments,
    beta_vanishes,
    directional_sensitivities,
    load_constellation_json,
    make_constellation,
    moments,
    predicted_fim_rank,
)
from .signal_model import (
    Burst,
    BurstMeta,
    BpskCollapse,
    ChannelConfig,
    FleetSpread,
    HwiParams,
    IqCoefficients,
    PARAM_NAMES,
    apply_hwi,
    bpsk_collapse,
    generate_fleet,
    iq_coefficients,
    iridium_known_symbols,
    random_known_symbols,
    read_burst_binary,
    read_burst_json,
    synthesize_burst,
    write_burst_binary,
    write_burst_json,
)
from .fim_crb import (
    CrbReport,
    DiscriminationResult,
    Fim,
    coupling_inflation,
    coupling_rho,
    crb_report,
    discrimination,
    fim_closed_form,
    fim_numerical,
    marginalize_channel,
    pa_fifth_order_confounding,
    pa_subblock_crb,
    qfunc,
    subblock_eigenvalue_ratio,
)

from .estimator import (
    BatchFit,
    EstimateStatus,
    McReport,
    McRow,
    NlsOptions,
    fit_batch,
    mc_crb_validation,
    nls_estimate,
)
from .features import (
    FEATURE_NAMES,
    FeatureVector,
    PipelineConfig,
    extract_features,
    normalize_amplitude,
    remove_cfo,
)
from .auth import (
    AuthReport,
    DrTable,
    FeatureTable,
    FleetProtocolConfig,
    RocCurve,
    StabilityRow,
    WeightVector,
    accumulate,
    balanced_dr,
    cross_stability,
    feature_table_from_bursts,
    glrt_score,
    iwat_score,
    iwat_weights,
    roc_auc,
    run_auth_experiment,
    simulate_campaign,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
