"""The package's public surface: the union of its modules' `__all__` lists, and no dead import."""

import ast
import re
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


def _dtype_conversions(path: Path) -> list[tuple[str, str]]:
    """(module, enclosing function) of each np.array, np.asarray or np.asanyarray call
    that names a dtype, by keyword or as its second argument."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            func = getattr(child, "func", None)
            if (isinstance(child, ast.Call) and isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name) and func.value.id == "np"
                    and func.attr in ("array", "asarray", "asanyarray")
                    and (len(child.args) > 1 or any(kw.arg == "dtype" for kw in child.keywords))):
                found.append((path.name, scope or "<module>"))
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def test_arrays_convert_only_through_the_array_rule():
    """Outside `_checks.py`, an array input is converted by `as_floats`, not by a call of
    its own with a dtype; there is no exception."""
    root = Path(__file__).resolve().parents[1] / "src" / "videosum"
    found = [hit for path in sorted(root.glob("*.py")) if path.name != "_checks.py"
             for hit in _dtype_conversions(path)]
    assert found == []


def _post_init_calls(path: Path) -> list[str]:
    """Each explicit call of a `__post_init__` method in `path`, as "file:line"."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "__post_init__"]


def test_records_are_rechecked_only_as_copies():
    """An entry point checks a record that may have changed since construction as
    `dataclasses.replace(record)`, never by running `__post_init__` on the caller's."""
    root = Path(__file__).resolve().parents[1] / "src" / "videosum"
    paths = sorted(root.glob("*.py"))
    assert paths
    assert [hit for path in paths for hit in _post_init_calls(path)] == []


CONCURRENCY_MODULES = ("concurrent", "threading", "multiprocessing", "subprocess", "_thread")


def _concurrency_imports(path: Path) -> list[str]:
    """Each import in `path` of a module that starts threads or processes, as "file:line name"."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [f"{path.name}:{node.lineno} {name}" for name in names
                  if name.split(".")[0] in CONCURRENCY_MODULES]
    return found


def test_only_the_model_module_imports_threads_or_processes():
    """The library starts no thread or process but score_importance's one worker per call,
    so no module other than model.py may import concurrent.futures, threading,
    multiprocessing or subprocess."""
    root = Path(__file__).resolve().parents[1] / "src" / "videosum"
    paths = [path for path in sorted(root.glob("*.py")) if path.name != "model.py"]
    assert paths
    assert [hit for path in paths for hit in _concurrency_imports(path)] == []


def _uses_given(path: Path) -> bool:
    """Whether a function in `path` is decorated with hypothesis' `given(...)`."""
    return any(isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and any(isinstance(dec, ast.Call)
                       and getattr(dec.func, "id", getattr(dec.func, "attr", None)) == "given"
                       for dec in node.decorator_list)
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))))


def test_fixed_seed_steps_name_every_property_test_file():
    """Each CI step that pins the hypothesis seed names by hand the test files it runs;
    that list must be exactly the files with a `@given` test, so a new property file is
    not left out of the pinned-seed runs."""
    root = Path(__file__).resolve().parents[1]
    workflow = (root / ".github" / "workflows" / "tests.yml").read_text(encoding="utf-8")
    steps = [line for line in workflow.splitlines() if "--hypothesis-seed" in line]
    assert len(steps) == 2
    property_files = {f"tests/{path.name}" for path in sorted((root / "tests").glob("*.py"))
                      if _uses_given(path)}
    assert property_files
    for step in steps:
        assert set(re.findall(r"tests/\w+\.py", step)) == property_files


SPECTRAL_ESTIMATES = ("svd", "svdvals", "eig", "eigh", "eigvals", "eigvalsh")


def _spectral_estimates(path: Path) -> list[str]:
    """Each call in `path` of an SVD or eigenvalue routine, or of `norm` with ord 2 or -2
    (by keyword or as its second argument), as "file:line name"."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        order = [kw.value for kw in node.keywords if kw.arg == "ord"] + node.args[1:2]
        try:
            spectral = name == "norm" and order and ast.literal_eval(order[0]) in (2, -2)
        except ValueError:  # an ord that is not a literal
            spectral = False
        if name in SPECTRAL_ESTIMATES or spectral:
            found.append(f"{path.name}:{node.lineno} {name}")
    return found


def test_no_spectral_norm_estimates():
    """Training skips an example only on certified upper bounds of norms (`train._norm_up`
    and `train._spectral_up`).  An SVD, an eigenvalue routine or a 2-norm is a rounded
    estimate that may lie below the exact value, so none may appear in `src/videosum`."""
    root = Path(__file__).resolve().parents[1] / "src" / "videosum"
    paths = sorted(root.glob("*.py"))
    assert paths
    assert [hit for path in paths for hit in _spectral_estimates(path)] == []
