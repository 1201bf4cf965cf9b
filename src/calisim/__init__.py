"""calisim: a discrete multi-agent limit-order-book market simulator and a
one-shot, search-free calibrator for its population behavior parameters,
benchmarked against random-search and Bayesian-optimization calibration on
a synthetic ground-truth benchmark.
"""

from .agents import BehaviorVector
from .benchmark import Benchmark, gen_benchmark
from .features import FEATURE_NAMES, FeatureNormalizer, extract
from .metamarket import MetaMarket
from .simulator import FundamentalSeries, SimConfig, run_day
from .surrogate import SurrogateNet

__version__ = "0.1.0"

__all__ = [
    "BehaviorVector", "Benchmark", "gen_benchmark",
    "FEATURE_NAMES", "FeatureNormalizer", "extract",
    "MetaMarket", "FundamentalSeries", "SimConfig", "run_day", "SurrogateNet",
    "__version__",
]
