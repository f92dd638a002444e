"""Viewpoint ambiguity ranking and next-best-view planning for twin objects.

A deterministic synthetic view-embedding world stands in for a learned
encoder, which makes every quantity in the pipeline verifiable against
ground truth: codebook pose estimation, ambiguity ranking with descent
refinement, ambiguity-threshold dataset splits, classifier sweeps, and the
closed-loop next-best-view policy with a random baseline.
"""

from .ambiguity import (
    AmbiguityTable,
    MatchedPair,
    ThresholdSplit,
    export_sorted_pairs,
    most_similar_view,
    normalize_ambiguity,
    rank_object,
    split_by_threshold,
)
from .baselines import (
    MetricReport,
    blob_match_similarity,
    metric_comparison,
    mse_similarity,
    noise_robustness_sweep,
)
from .classify import (
    CentroidClassifier,
    EmptyTrainSetError,
    SweepResult,
    SweepRow,
    predict,
    threshold_sweep,
    train,
)
from .codebook import (
    Codebook,
    PoseHypothesis,
    build_codebook,
    cossim,
    roll_aligned_cossim,
    estimate_pose,
    hypotheses_for_group,
)
from .policy import (
    EpisodeResult,
    ExperimentResult,
    ReachableSet,
    TrajectoryGrid,
    build_sphere_reachable,
    build_trajectory_reachable,
    next_best_view,
    run_episode,
    run_experiment,
)
from .so3 import (
    Rotation,
    ViewGrid,
    build_view_grid,
    fibonacci_directions,
    geodesic_distance,
    look_at,
)
from .synthworld import (
    SynthObject,
    make_ambiguous_pair,
    patch_visible,
    render_embedding,
)

__version__ = "0.1.0"
