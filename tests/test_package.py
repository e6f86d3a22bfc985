"""The package's public surface: the union of its modules' `__all__` lists, and no dead import."""

import ast
from pathlib import Path

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


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports but never mentions; a name listed in `__all__` counts as used."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            getattr(target, "id", None) == "__all__" for target in node.targets
        ):
            used |= {elt.value for elt in ast.walk(node.value) if isinstance(elt, ast.Constant)}
    where = f"{path.parent.name}/{path.name}"
    return [f"{where}:{line}: {name}" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    """Every module of the package, the tests and the demos uses each name it imports."""
    root = Path(__file__).resolve().parents[1]
    paths = [path for folder in ("src/videosum", "tests", "demos")
             for path in sorted((root / folder).glob("*.py"))]
    assert paths
    assert [entry for path in paths for entry in _unused_imports(path)] == []
