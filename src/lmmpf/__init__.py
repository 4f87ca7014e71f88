"""State estimation with linear-multistep propagators and pair-based error control."""

from .homec import PAIR_IDS, MethodPair, make_pair
from .integrators import (
    ColdHistoryError,
    Family,
    ImplicitSolveError,
    MethodSpec,
    make_method,
)
from .metrics import RunDiagnostics, diagnostics
from .ode_models import (
    PROBLEMS,
    ObservationRecord,
    OdeSystem,
    TestProblem,
    gaussian_decay_problem,
    get_problem,
    smooth_problem,
    synthesize_observations,
)
from .particle_filter import (
    Ensemble,
    FilterConfig,
    LikelihoodUnderflowError,
    initialize,
    innovation_step,
    iter_filter,
    propagate_ensemble,
    run_filter,
    survival_of_the_fittest,
    weight_update,
)
from .state_space import EvolutionObservationModel
from .experiment import (
    ConfigError,
    ExperimentConfig,
    ResultsTable,
    TableRow,
    emit_outputs,
    run_experiment,
    run_replicate,
    run_sweep,
)

__version__ = "0.1.0"
