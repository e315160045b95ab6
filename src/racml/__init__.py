"""Randomized multi-block sweep solver for QP, regression and SVM."""

from .problems import (
    CapacityError,
    Mode,
    QpProblem,
    SolveResult,
    SolverConfig,
    Status,
    enumerate_orders,
    load_qp_manifest,
    make_partition,
)
from .engine import (
    BlockDefinitenessError,
    BlockSystem,
    ResidualPair,
    compute_residuals,
    run_sweep,
    solve,
    solve_block,
)
from .spectral import (
    ConvergenceCertificate,
    IterationMap,
    certify,
    expected_operators,
    gauss_seidel_matrix,
    iteration_map,
    kkt_residual,
    kkt_solve,
)
from .elastic_net import (
    ElasticNetModel,
    ElasticNetSpec,
    consensus_fit,
    fit,
    soft_threshold,
    z_update,
)
from .svm import (
    KernelSpec,
    SvmModel,
    accuracy,
    compute_bias,
    grid_search,
    predict,
    train,
)
from .data_io import (
    Dataset,
    LibsvmFormatError,
    gen_blobs,
    gen_regression,
    parse_libsvm,
    write_libsvm,
)

__version__ = "0.1.0"
