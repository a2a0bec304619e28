"""randldl: dense symmetric-indefinite block LDL^T with randomized pivoting.

The package factors a dense symmetric matrix as ``Pi A Pi^T = L D L^T``
(unit lower triangular ``L``, block diagonal ``D`` with 1x1 and 2x2 blocks)
under one of three pivoting strategies:

- ``rcp``  -- randomized complete pivoting: pivot columns are chosen by
  scanning a small Gaussian sketch ``B = Omega A`` that is downdated
  alongside the factorization, giving complete-pivoting-like growth control
  at partial-pivoting cost;
- ``bkpp`` -- classic partial-pivoting block strategy;
- ``bbk``  -- bounded (rook) block strategy.

Entry points: :func:`factor`, :func:`factor_robust`, :func:`solve`,
:func:`solve_many`, and the :mod:`randldl.gallery` matrix families with
their Matrix Market I/O.  The kernels behind them (``core``, ``pivot``,
``sketch``, ``metrics``) stay importable from their modules but are not
part of the package namespace.
"""

from .factor import (
    PAT_DEFICIENT,
    PAT_PAIR_END,
    PAT_PAIR_START,
    PAT_SINGLE,
    BlockDiag,
    FactorConfig,
    Factorization,
    GrowthTracking,
    NumericalError,
    Strategy,
    factor,
    factor_robust,
    reconstruct,
)
from .gallery import (
    FAMILIES,
    MatrixSpec,
    generate,
    load_matrix_market,
    save_matrix_market,
)
from .metrics import GrowthStats, OpCounters, backward_error, jl_required_p
from .pivot import BK_ALPHA, SBKP_ALPHA
from .solve import SolveReport, solve, solve_many

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # factor
    "factor",
    "factor_robust",
    "reconstruct",
    "FactorConfig",
    "Factorization",
    "BlockDiag",
    "Strategy",
    "GrowthTracking",
    "NumericalError",
    "PAT_SINGLE",
    "PAT_PAIR_START",
    "PAT_PAIR_END",
    "PAT_DEFICIENT",
    "BK_ALPHA",
    "SBKP_ALPHA",
    # solve
    "solve",
    "solve_many",
    "SolveReport",
    # metrics
    "OpCounters",
    "GrowthStats",
    "backward_error",
    "jl_required_p",
    # gallery
    "generate",
    "MatrixSpec",
    "FAMILIES",
    "load_matrix_market",
    "save_matrix_market",
]
