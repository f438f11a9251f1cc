"""tensorreg: regression with tensor-structured outputs.

Closed-form multilinear-rank-constrained ridge regression (primal and kernel
dual forms), flat ridge / reduced-rank baselines, seeded data generation, and
an experiment harness with deterministic reporting.
"""

from .datagen import (
    SynthData,
    SynthSpec,
    gen_image_measurements,
    gen_linear_synthetic,
    gen_nonlinear_synthetic,
    random_lowrank_tensor,
    read_ppm,
    substream,
    write_ppm,
)
from .harness import (
    ForecastDataset,
    GridSpec,
    build_forecast_dataset,
    grid_search_cv,
    load_metoffice,
    rmse,
    run_experiment,
)
from .linalg import (
    NotPositiveDefiniteError,
    SymEigResult,
    gen_sym_eig_top,
    pinv,
    spd_solve,
    sym_eig_top,
)
from .regress import (
    HolrrModel,
    KernelHolrrModel,
    KernelSpec,
    RegressionProblem,
    gram,
    holrr_fit,
    holrr_predict,
    holrr_predict_batch,
    kernel_vec,
    kholrr_fit,
    kholrr_predict,
    kholrr_predict_batch,
    load_model,
    lrr_fit,
    rls_fit,
    save_model,
)
from .tensor import (
    TuckerFactors,
    frobenius_norm,
    hosvd_truncated,
    inner,
    matricize,
    dematricize,
    mode_product,
    mode_vector_product,
    multi_mode_product,
    multilinear_rank,
    read_dten,
    tucker_reconstruct,
    vectorize,
    write_dten,
)

__version__ = "0.1.0"
