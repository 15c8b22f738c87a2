"""Operator Bellman inequality verification toolkit.

Kubo-Ando operator means, unital positive linear maps and Mond-Pecaric
reverse constants, together with a seeded campaign runner that checks
every supported operator/scalar inequality on random constrained
instances and reports Loewner-order slack.
"""

__version__ = "0.1.0"

from .checks import CheckOutcome, check, registry_listing  # noqa: E402
from .constants import (  # noqa: E402
    ConstantResult,
    beta,
    beta_log,
    delta_bellman,
    delta_affine_power,
    gamma,
    gamma_power,
    log_mean,
    t_star,
    zeta_aczel,
)
from .means import (  # noqa: E402
    RepresentingFunction,
    arithmetic_w,
    composed,
    function_from_id,
    geometric_w,
    log_fn,
    mean,
    power_fn,
    powered,
    weighted_arithmetic,
)
from .spectral import (  # noqa: E402
    OrderVerdict,
    SpectralDecomposition,
    Tolerance,
    apply_function,
    eig,
    hermitize,
    loewner_leq,
)

__all__ = [
    "CheckOutcome",
    "ConstantResult",
    "OrderVerdict",
    "RepresentingFunction",
    "SpectralDecomposition",
    "Tolerance",
    "apply_function",
    "arithmetic_w",
    "beta",
    "beta_log",
    "check",
    "composed",
    "delta_bellman",
    "delta_affine_power",
    "eig",
    "function_from_id",
    "gamma",
    "gamma_power",
    "geometric_w",
    "hermitize",
    "loewner_leq",
    "log_fn",
    "log_mean",
    "mean",
    "power_fn",
    "powered",
    "registry_listing",
    "t_star",
    "weighted_arithmetic",
    "zeta_aczel",
]
