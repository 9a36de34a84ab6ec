"""Jack polynomial algebra and the extreme-eigenvalue-ratio distribution
of singular beta-Wishart matrices, with a Monte Carlo cross-check harness.

The Monte Carlo names load `jackratio.mc`, and with it numpy, on first
access, and the symbolic names (`jack`, `esym`) load the E-basis layers
the same way: the exact layers and the symbolic and distribution commands
never import numpy, and the distribution commands never import `jack` or
`esym`."""

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
)

__version__ = "0.1.0"

# names served on first access, by the module that defines them: the Monte
# Carlo names load numpy, the symbolic ones the E-basis layers
_LAZY = {
    "mc": ("McConfig", "empirical_moments", "empirical_quantile", "ks_distance",
           "sample_extreme_ratio"),
    "esym": ("EPolynomial", "LBRow", "eigenvalue_closed_form", "elementary_values",
             "laplace_beltrami_row"),
    "jack": ("DegenerateBetaError", "JackExpansion", "clear_caches", "e_to_jack",
             "jack_at_identity", "jack_expansion", "jack_product",
             "leading_elementary_coeff", "load_expansion_cache", "save_expansion_cache"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    module = name if name in _LAZY else _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # not `from . import mc`: its hasattr probe would re-enter this hook
    loaded = importlib.import_module(f".{module}", __name__)
    return loaded if name == module else getattr(loaded, name)


def __dir__():
    return sorted({*globals(), *_LAZY, *_HOME})
