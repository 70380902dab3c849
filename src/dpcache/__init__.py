"""k-way set-associative cache simulation under data-plane constraints."""

from .core import (
    MISS,
    CacheElement,
    LayoutConfig,
    LayoutError,
    OpCounter,
    RegisterStore,
    StorageError,
)
from .harness import (
    CacheSpec,
    ConfigError,
    ExperimentConfig,
    ExperimentReport,
    emit_report,
    run_experiment,
    run_sweep,
)
from .hyperbolic import HyperbolicEngine, LogTable
from .multiregion import (
    CountingFilter,
    MultiRegionCache,
    MultiRegionConfig,
    RegionSpec,
)
from .oracle import (
    ExhaustiveReport,
    ReferenceCache,
    ReferenceMultiCache,
    exhaustive_check,
)
from .policies import (
    FetchResult,
    FifoEngine,
    LfuEngine,
    LruEngine,
    PolicyEngine,
    make_engine,
)
from .traces import (
    Trace,
    TraceFormatError,
    ZipfSpec,
    generate_zipf,
    parse_trace,
    zipf_frequency,
)

__version__ = "0.1.0"
