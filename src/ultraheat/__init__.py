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
    from_matrix,
    power_profile,
    tj_constant,
)
from .form import (  # noqa: F401
    SimpleFunction,
    energy,
    energy_trunc,
    indicator_energy_check,
    simple_function,
)
from .semigroup import (  # noqa: F401
    HeatKernelTable,
    HierarchicalHeatKernel,
    Perturbation,
    SpectralGenerator,
    apply,
    generator,
    heat_kernel,
    perturbed_apply,
    semigroup_selfcheck,
    truncated_heat_kernel,
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
