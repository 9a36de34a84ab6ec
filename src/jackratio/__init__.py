"""Jack polynomial algebra and the extreme-eigenvalue-ratio distribution
of singular beta-Wishart matrices, with a Monte Carlo cross-check harness.

The Monte Carlo names load `jackratio.mc`, and with it numpy, on first
access; the exact layers and the symbolic and distribution commands never
import numpy."""

import importlib

from .partitions import (
    Partition,
    conjugate,
    lower_hook_product,
    normalize,
    partitions_of,
    upper_hook_product,
    weight,
)
from .esym import (
    EPolynomial,
    LBRow,
    eigenvalue_closed_form,
    elementary_values,
    laplace_beltrami_row,
)
from .jack import (
    DegenerateBetaError,
    JackExpansion,
    clear_caches,
    e_to_jack,
    jack_at_identity,
    jack_expansion,
    jack_product,
    leading_elementary_coeff,
    load_expansion_cache,
    save_expansion_cache,
)
from .special import (
    gen_pochhammer_exact,
    pi_exponent,
)
from .dist import (
    DistParams,
    SeriesTable,
    TruncationError,
    TruncationWarning,
    auto_converged_params,
    get_general_table,
    get_table,
    leading_constant,
)

__version__ = "0.1.0"

_MC_NAMES = ("McConfig", "empirical_moments", "empirical_quantile",
             "ks_distance", "sample_extreme_ratio")


def __getattr__(name):
    if name == "mc" or name in _MC_NAMES:
        # not `from . import mc`: its hasattr probe would re-enter this hook
        mc = importlib.import_module(".mc", __name__)
        return mc if name == "mc" else getattr(mc, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), "mc", *_MC_NAMES})
