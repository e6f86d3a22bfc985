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
    `dataclasses.replace(record)`, or a `PairExample` field by field by its field rule, never
    by running `__post_init__` on the caller's."""
    root = Path(__file__).resolve().parents[1] / "src" / "videosum"
    paths = sorted(root.glob("*.py"))
    assert paths
    assert [hit for path in paths for hit in _post_init_calls(path)] == []


def _new_calls(path: Path) -> list[str]:
    """Each call of a `__new__` method in `path`, as "file:line enclosing function"."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "__new__"):
                found.append(f"{path.name}:{child.lineno} {scope}")
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return found


def test_only_sample_pairs_builds_records_without_their_constructor():
    """`sample_pairs` builds its examples with `PairExample.__new__` from arrays it has
    checked by the field rule, once per index.  Nothing else in the package may skip a
    record's constructor, so every other record is checked when it is built."""
    root = Path(__file__).resolve().parents[1] / "src" / "videosum"
    found = [hit for path in sorted(root.glob("*.py")) for hit in _new_calls(path)]
    assert [hit for hit in found if not hit.startswith("train.py:")
            or not hit.endswith(" sample_pairs")] == []
    assert found


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
    """Training skips an example only on certified upper bounds of norms (`_bounds.norm_up`
    and `_bounds.spectral_up`).  An SVD, an eigenvalue routine or a 2-norm is a rounded
    estimate that may lie below the exact value, so none may appear in `src/videosum`."""
    root = Path(__file__).resolve().parents[1] / "src" / "videosum"
    paths = sorted(root.glob("*.py"))
    assert paths
    assert [hit for path in paths for hit in _spectral_estimates(path)] == []


ROUNDING_CONSTANTS = re.compile(r"_?(EPS|UP|TINY|SUM_RANGE|GRAM_RANGE)")


def _rounding_models(path: Path) -> list[str]:
    """Each place in `path` that defines machine epsilon or a rounding constant of its own:
    a `finfo(...).eps` or `float_info.epsilon`, an assignment to a name such as `_EPS`,
    `_UP`, `_TINY` or a safe range, or a power of two with a negative exponent, as
    "file:line what".  `finfo(...).max` is not one."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and node.attr in ("eps", "epsilon") and (
                isinstance(node.value, ast.Call) and getattr(node.value.func, "attr", None) == "finfo"
                or getattr(node.value, "attr", None) == "float_info"):
            found.append(f"{path.name}:{node.lineno} {node.attr}")
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, (ast.AnnAssign, ast.AugAssign)) else [])
        found += [f"{path.name}:{node.lineno} {t.id}" for t in targets
                  if isinstance(t, ast.Name) and ROUNDING_CONSTANTS.fullmatch(t.id)]
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
                and isinstance(node.left, ast.Constant) and node.left.value == 2
                and isinstance(node.right, ast.UnaryOp) and isinstance(node.right.op, ast.USub)):
            found.append(f"{path.name}:{node.lineno} 2**-")
    return found


def test_one_rounding_model():
    """Machine epsilon, the unit roundoff, the safe range for sums of squares and the
    rounding constants of the certified skips are defined once, in `_bounds.py`; no other
    module of the package writes a rounding model of its own."""
    root = Path(__file__).resolve().parents[1] / "src" / "videosum"
    paths = [path for path in sorted(root.glob("*.py")) if path.name != "_bounds.py"]
    assert paths
    assert [hit for path in paths for hit in _rounding_models(path)] == []
    assert _rounding_models(root / "_bounds.py")


def _pair_net_checks(path: Path) -> list[str]:
    """Each `_checked_net` call in `path` that names a net of the video/description pair (any
    name but the literal "net"), outside `model._checked_nets`, as "file:line function"."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Call) and getattr(child.func, "id", None) == "_checked_net"
                    and not (child.args and isinstance(child.args[0], ast.Constant)
                             and child.args[0].value == "net")
                    and (path.name, scope) != ("model.py", "_checked_nets")):
                found.append(f"{path.name}:{child.lineno} {scope}")
            visit(child, scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return found


def test_a_pair_of_nets_is_checked_only_together():
    """`model._checked_nets` is the one rule for a video net and a description net: each
    under the net rule, then one hidden and one embed width.  No other function checks the
    "video net" or the "description net" alone, so no entry point can skip the agreement."""
    root = Path(__file__).resolve().parents[1] / "src" / "videosum"
    paths = sorted(root.glob("*.py"))
    assert paths
    assert [hit for path in paths for hit in _pair_net_checks(path)] == []
    assert "_checked_net(\"video net\"" in (root / "model.py").read_text(encoding="utf-8")
