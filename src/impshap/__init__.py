"""Tree-ensemble variable importances, exact Shapley values, and the
population formulas that connect them."""

__version__ = "0.1.0"

from .data import (
    Dataset,
    dataset_from_joint,
    example_tables,
    led_population,
    led_sampled,
    load_csv,
    load_joint_csv,
    quantize,
    random_joint,
)
from .forest import (
    LocalImportanceMatrix,
    build_forest,
    build_forests,
    correlation_report,
    global_mdi,
    local_mdi,
    predict_proba,
    saabas,
)
from .info_theory import JointDistribution, joint_from_samples
from .population import (
    PopulationImportance,
    check_decompositions,
    pop_global_mdi,
    pop_local_mdi,
    pop_local_mdi_batch,
)
from .relevance import (
    is_irrelevant,
    is_locally_irrelevant,
    is_strongly_relevant,
    verify_global_local_equivalence,
    verify_local_null_scores,
)
from .tree import PackedTrees
from .tu_game import (
    ShapleyVector,
    TUGame,
    check_axioms,
    check_strong_monotonicity,
    game_global_info,
    game_global_variance,
    game_local_info,
    game_local_variance,
    shapley_exact,
)

__all__ = [
    "Dataset",
    "JointDistribution",
    "LocalImportanceMatrix",
    "PackedTrees",
    "PopulationImportance",
    "ShapleyVector",
    "TUGame",
    "build_forest",
    "build_forests",
    "check_axioms",
    "check_decompositions",
    "check_strong_monotonicity",
    "correlation_report",
    "dataset_from_joint",
    "example_tables",
    "game_global_info",
    "game_global_variance",
    "game_local_info",
    "game_local_variance",
    "global_mdi",
    "is_irrelevant",
    "is_locally_irrelevant",
    "is_strongly_relevant",
    "joint_from_samples",
    "led_population",
    "led_sampled",
    "load_csv",
    "load_joint_csv",
    "local_mdi",
    "pop_global_mdi",
    "pop_local_mdi",
    "pop_local_mdi_batch",
    "predict_proba",
    "quantize",
    "random_joint",
    "saabas",
    "shapley_exact",
    "verify_global_local_equivalence",
    "verify_local_null_scores",
]
