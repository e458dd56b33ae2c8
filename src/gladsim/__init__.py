"""gladsim: closed-loop H2M/R latency and coordinated-learning testbed.

Subpackages map to the testbed's concerns:

* `traffic` - generalized Pareto inter-arrival streams (sample, fit, KS test)
* `pon` - XG-PON latency via discrete-event simulation and Kingman G/G/1
* `haptic` - synthetic sessions, touch classification, feedback forecasting
* `coordination` - global profile registry and cold/warm machine onboarding
* `experiments` - scenario runners and report export
* `config` / `cli` - scenario files and the `gladsim` command
"""

__version__ = "0.1.0"

from .coordination import (
    GladParams,
    GlobalRegistry,
    OnboardResult,
    ProfileRecord,
    descriptor_of,
    match_profile,
    onboard_machine,
    run_savings_sweep,
    upload_profile,
)
from .errors import (
    ConfigError,
    DegenerateDataError,
    GladsimError,
    InsufficientDataError,
    NotReadyError,
    ParameterError,
    ResourceLimitError,
    SaturationError,
)
from .experiments import (
    Report,
    ScenarioConfig,
    export_report,
    run_latency_sweep,
    run_onboarding_study,
)
from .haptic import (
    ControlTrace,
    HapticSample,
    HapticTrace,
    ObjectKind,
    ObjectProfile,
    TouchClassifier,
    estimate_tau,
    generate_session,
    label_touch,
    optimize_alpha,
    train_classifier,
)
from .pon import (
    LoadPoint,
    PonConfig,
    round_trips,
)
from .traffic import (
    GpdParams,
    fit_gpd,
    generate_stream,
    ks_test,
)
