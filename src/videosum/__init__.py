"""Video summarization engine over per-frame feature streams.

Pipeline: per-frame features are cut into uniform segments, embedded into a
joint video-description space by two small tanh subnetworks trained with a
contrastive loss, clustered with k-medoids, and the medoid segments emitted
in temporal order as the summary.  The package also provides a bidirectional
LSTM frame-importance scorer, semantic fast-forward scoring and frame
selection, and keyshot/jitter/speed-up evaluation metrics.
"""

from .model import (
    DEFAULT_DESC_DIM,
    DEFAULT_EMBED_DIM,
    DEFAULT_HIDDEN_DIM,
    ImportanceScorer,
    LstmParams,
    LstmState,
    Subnet,
    embed_frames,
    ffn_forward,
    init_lstm,
    init_scorer,
    init_subnet,
    lstm_scan,
    lstm_step,
    score_importance,
    zero_state,
)
from .train import (
    PairExample,
    TrainConfig,
    contrastive_loss,
    finite_diff_check,
    loss_gradients,
    sample_pairs,
    sgd_train,
)
from .summarize import (
    Roi,
    Segment,
    SegmentFeature,
    clustering_cost,
    generate_summary,
    kmedoids,
    pam_iterations,
    segment_features,
    segment_speedups,
    semantic_score,
    semantic_threshold_split,
    speedup_frame_selection,
    uniform_segments,
)
from .metrics import jitter_amount, keyshot_pr, normalize_intervals, speedup_deviation
from .synth import SynthData, SynthSpec, synth_generate
from .io import (
    MAGIC_DESCS,
    MAGIC_FEATURES,
    load_checkpoint,
    read_intervals,
    read_matrix,
    read_pair_labels,
    read_rois,
    save_checkpoint,
    write_intervals,
    write_matrix,
    write_pair_labels,
    write_selection,
    write_summary,
)
from .cli import cli_dispatch

__version__ = "0.1.0"
