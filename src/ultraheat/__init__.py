"""Heat kernels and functional-inequality verification for non-local jump
forms on finite ultrametric measure spaces."""

__version__ = "0.1.0"

from .space import (  # noqa: F401
    Ball,
    UltrametricSpace,
    build_tree,
    from_distance_csv,
    from_distance_matrix,
    validate_ultrametric,
)
from .kernel import (  # noqa: F401
    ExponentConfig,
    JumpKernel,
    isotropic_kernel,
    power_profile,
    tj_constant,
)
from .form import energy, indicator_energy_check  # noqa: F401
from .semigroup import (  # noqa: F401
    HierarchicalHeatKernel,
    SpectralGenerator,
    generator,
    semigroup_selfcheck,
)
from .davies import (  # noqa: F401
    IterationTrace,
    OdeComparisonParams,
    lp_derivative_check,
    moser_iteration,
    ode_comparison_check,
    perturbation_identity_check,
    power_inequality_check,
    sup_bound_check,
    tilted_evolution,
    vanishing_check,
)
from .bounds import (  # noqa: F401
    ConditionEstimate,
    WueCertificate,
    due_constant,
    energy_difference_check,
    nash_constant,
    tail_probability_check,
    truncation_comparison_check,
    wue_certificate,
    wue_constant,
)
