"""Meta-gradient estimators for gradient-based meta-learning.

The package splits into a small dense linear-algebra substrate, smooth task
objectives, an inner-loop adaptation recorder, the estimator family itself,
closed-form error-bound calculators, and an outer meta-training loop. See
the README for the CLI and the demos/ directory for narrative walkthroughs.
"""

from .adaptation import (
    DivergenceError,
    Trajectory,
    from_hessian_sequence,
    gd_adapt,
    validation_gradient,
)
from .bounds import (
    BoundInputs,
    BoundValues,
    bound_sweep,
    bounds_convex,
    bounds_smooth,
    bounds_strongcvx,
    sweep_csv,
)
from .estimators import (
    CostCounters,
    EstimatorConfig,
    MetaGradient,
    binom_meta_gradient,
    binom_oracle,
    binomtrunc_meta_gradient,
    estimate,
    estimation_error,
    fo_meta_gradient,
    full_meta_gradient,
    imaml_meta_gradient,
    trunc_meta_gradient,
)
from .linalg import (
    CGBreakdownError,
    CGResult,
    conjugate_gradient,
    is_symmetric,
)
from .metatrain import (
    ErrorRow,
    MetaTrainConfig,
    TaskBatch,
    TaskPair,
    TrainRecordRow,
    averaged_csv,
    meta_step,
    per_batch_csv,
    run_error_experiment,
    run_metatrain,
    sample_task_batch,
    train_csv,
)
from .objectives import (
    LogisticTask,
    MlpObjective,
    PrescribedHessianSequence,
    QuadraticTask,
    TaskObjective,
    mlp_init,
    random_spd,
    sharpness_sequence,
)

__version__ = "0.1.0"
