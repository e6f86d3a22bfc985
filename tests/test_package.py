"""The package's public surface: the union of its modules' `__all__` lists."""

import videosum

PUBLIC_NAMES = [
    "DEFAULT_DESC_DIM", "DEFAULT_EMBED_DIM", "DEFAULT_HIDDEN_DIM", "ImportanceScorer",
    "LstmParams", "MAGIC_DESCS", "MAGIC_FEATURES", "PairExample", "Roi", "Segment",
    "SegmentFeature", "Subnet", "SynthData", "SynthSpec", "TrainConfig", "cli_dispatch",
    "clustering_cost", "contrastive_loss", "embed_frames", "finite_diff_check",
    "generate_summary", "init_scorer", "init_subnet", "jitter_amount",
    "keyshot_pr", "kmedoids", "load_checkpoint", "loss_gradients", "lstm_scan",
    "normalize_intervals", "pam_iterations", "read_intervals", "read_matrix",
    "read_pair_labels", "read_rois", "sample_pairs", "save_checkpoint", "score_importance",
    "segment_features", "segment_speedups", "semantic_score", "semantic_threshold_split",
    "sgd_train", "sigmoid", "speedup_deviation", "speedup_frame_selection", "synth_generate",
    "uniform_segments", "write_intervals", "write_matrix", "write_pair_labels",
    "write_selection", "write_summary",
]


def test_public_names_are_pinned_and_resolve():
    assert sorted(videosum.__all__) == PUBLIC_NAMES
    for name in videosum.__all__:
        assert getattr(videosum, name) is not None, name
