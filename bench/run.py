"""videosum benchmark: one workload per process, a closed loop of passes.

Run from the repository root:

    python3 bench/run.py --workload train --seed 0 --seconds 20 --trace 0

Set-up generates the workload's inputs from --seed, at least five times and
for at least two seconds (setup_s is the median).  Then passes run back to back, each starting when the previous
one ends, until --seconds have passed.  Every pass's outputs are checked
(see workloads.py).

--trace 0 prints the end-to-end metrics; --trace 1 alternates traced and
untraced passes, times PAM's phases in a separate call, feeds the same input
files through the CLI, and prints the per-layer metrics; those of a layer
the workload does not run read 0.  The traced run writes its spans to
bench/.work/.  The report goes to standard output; its
last line is one JSON object with the keys correct, attempted, failed and
metrics.  The videosum package is imported from the checkout's src/.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

from spans import NULL, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / ".work"
REFERENCE = BENCH_DIR / "reference.json"
# Set-up repeats: at least the minimum count and time, at most the maximum count.
SETUP_MIN_REPEATS, SETUP_MIN_SECONDS, SETUP_MAX_REPEATS = 5, 2.0, 25

# name -> (unit, better)
END_TO_END = {
    "frames_per_s": ("frames/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ok_rate": ("ratio", "higher"),
    "summary_f1": ("ratio", "higher"),
    "summary_cost": ("cost", "lower"),
}

# Spans whose per-pass totals are reported as "<span>_s".
TIMED_SPANS = (
    "train.sgd_train",
    "io.save_checkpoint",
    "io.load_checkpoint",
    "io.read_matrix",
    "io.write_matrix",
    "io.intervals",
    "summarize.segment_features",
    "summarize.generate_summary",
    "summarize.semantic_score",
    "summarize.threshold_split",
    "summarize.frame_selection",
    "model.init",
    "model.score_importance",
    "metrics.eval",
)
CLI_COMMANDS = ("train", "summarize", "eval", "score_lstm", "score_semantic", "fastforward")

# name -> (unit, how it is obtained).  "timed" values are medians over the
# traced passes; "computed" counts follow from the input sizes alone;
# "measured" values are read from outputs or files.
PER_LAYER = {
    **{f"{span}_s": ("s", "timed") for span in TIMED_SPANS},
    "synth.generate_s": ("s", "timed in set-up"),
    "train.ms_per_example": ("ms", "timed"),
    "train.examples": ("count", "computed"),
    "train.final_loss": ("loss", "measured"),
    "io.checkpoint_bytes": ("bytes", "measured"),
    "summarize.pam_build_s": ("s", "timed, separate PAM call"),
    "summarize.pam_swap_s": ("s", "timed, separate PAM call"),
    "summarize.pam_swaps": ("count", "measured"),
    "summarize.pam_peak_mb": ("MB", "measured, tracemalloc"),
    "summarize.segments": ("count", "computed"),
    "model.lstm_steps": ("count", "computed"),
    "model.lstm_us_per_step": ("us", "timed"),
    "summarize.parts": ("count", "measured"),
    "summarize.dp_edges": ("count", "computed"),
    "summarize.kept_frames": ("count", "measured"),
    "summarize.ff_speedup_dev": ("x", "measured"),
    **{f"cli.{cmd}_s": ("s", "timed, CLI cross-check") for cmd in CLI_COMMANDS},
    "trace.overhead_s": ("s", "traced pass minus untraced median"),
}


def _import_videosum():
    """Import videosum from ROOT/src, or exit non-zero if it is not there."""
    src = ROOT / "src"
    if not (src / "videosum" / "__init__.py").is_file():
        sys.exit(f"error: no videosum package under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import videosum

    if Path(videosum.__file__).resolve().parent != (src / "videosum").resolve():
        sys.exit(f"error: imported videosum from {videosum.__file__}, not from {src}")


def _blas_threads() -> int | None:
    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def _load_reference(size: str, seed: int, workload: str) -> dict | None:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh).get(size, {}).get(str(seed), {}).get(workload)


def _attempt(wl, tracer, ref):
    """Run and check one pass: (wall seconds, output or None, problems)."""
    t0 = time.perf_counter()
    try:
        with tracer.span("pass"):
            out = wl.run_pass(tracer)
    except Exception:  # a failed pass is counted, and the loop goes on
        return time.perf_counter() - t0, None, [traceback.format_exc()]
    wall = time.perf_counter() - t0
    try:
        return wall, out, wl.check(out, ref)
    except Exception:
        return wall, out, [traceback.format_exc()]


def _cli_crosscheck(wl, pass_out) -> tuple[dict[str, float], list[str]]:
    """Run the CLI on the same input files; byte-compare its documents."""
    from videosum.cli import cli_dispatch

    times, problems = {}, []
    for command, argv, compare in wl.cli_steps():
        stdout = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = cli_dispatch(argv)
        times[f"cli.{command}_s"] = time.perf_counter() - t0
        if code != 0:
            problems.append(f"cli {command} exited {code}")
            continue
        for cli_file, pass_file in compare:
            if Path(wl.path(cli_file)).read_bytes() != Path(wl.path(pass_file)).read_bytes():
                problems.append(f"cli {command}: {cli_file} differs from the pass's {pass_file}")
        if command == "eval" and json.loads(stdout.getvalue())["f1"] != pass_out["f1"]:
            problems.append("cli eval: F1 differs from the pass's")
    return times, problems


class Run:
    """One benchmark run of one workload; counts attempts and failures."""

    def __init__(self, wl, ref, seconds: int):
        self.wl, self.ref, self.seconds = wl, ref, seconds
        self.attempted = self.failed = 0
        self.quality: dict[str, float] | None = None
        self.digest = ""
        self.input_problems: list[str] = []
        self.walls: list[float] = []  # seconds of each checked pass

    def record(self, out, problems: list[str]) -> bool:
        """Count one attempt; a pass whose quality changes between passes fails."""
        self.attempted += 1
        problems = self.input_problems + problems
        if not problems:
            quality = self.wl.quality(out)
            if self.quality is None:
                self.quality = quality
            elif quality != self.quality:
                problems = [f"output quality changed between passes: {quality} vs {self.quality}"]
        if problems:
            self.failed += 1
            print(f"pass {self.attempted} FAILED:\n  " + "\n  ".join(problems), file=sys.stderr)
        return not problems

    def setup(self, tracer_for) -> list[float]:
        """Generate the inputs repeatedly; return each set-up's seconds."""
        times = []
        for i in range(SETUP_MAX_REPEATS):
            if len(times) >= SETUP_MIN_REPEATS and sum(times) >= SETUP_MIN_SECONDS:
                break
            tracer = tracer_for(f"setup{i}")
            t0 = time.perf_counter()
            with tracer.span("setup"):
                self.digest = self.wl.setup(tracer)
            times.append(time.perf_counter() - t0)
        if self.ref and self.digest != self.ref["input_sha"]:
            self.input_problems = [
                f"input digest {self.digest} differs from the reference {self.ref['input_sha']}"
            ]
        return times

    def loop(self, tracer_for, want_traced: bool):
        """Passes until the deadline; yields (traced, wall, out) of checked ones.

        Every pass counts towards the medians: a CLI user pays the cold costs
        on every invocation, and a median is not moved by one slow pass.
        """
        deadline = time.perf_counter() + self.seconds
        needed = {False, True} if want_traced else {False}
        kinds_seen = set()
        i = 0
        while True:
            traced = want_traced and i % 2 == 1
            wall, out, problems = _attempt(self.wl, tracer_for(i) if traced else NULL, self.ref)
            if self.record(out, problems):
                kinds_seen.add(traced)
                self.walls.append(wall)
                yield traced, wall, out
            i += 1
            now = time.perf_counter()
            # Past the deadline, a traced run still waits for one checked pass
            # of each kind, but never beyond twice the run's length.
            if now >= deadline and (kinds_seen >= needed or now >= deadline + self.seconds):
                return


def _result(run: Run, metrics: dict[str, float], units: dict[str, tuple]) -> dict:
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name][0]} for name in units},
    }


def _timed_run(run: Run) -> dict:
    walls = [wall for _, wall, _ in run.loop(lambda _: NULL, want_traced=False)]
    if run.quality is None:  # every pass failed; the result says so
        run.quality = {"summary_f1": 0.0, "summary_cost": 0.0}
    return {
        "frames_per_s": statistics.median(run.wl.frames / w for w in walls) if walls else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_rate": (run.attempted - run.failed) / max(run.attempted, 1),
        **run.quality,
    }


def _traced_run(run: Run, tracer, setup_passes: list[str]) -> dict:
    walls = {False: [], True: []}
    per_pass, last = [], None
    for traced, wall, out in run.loop(_tracer_for(tracer), want_traced=True):
        walls[traced].append(wall)
        if traced:
            per_pass.append(tracer.totals(tracer.pass_id))
            last = out
    metrics = {name: 0.0 for name in PER_LAYER}
    for span in TIMED_SPANS:
        metrics[f"{span}_s"] = statistics.median(t.get(span, 0.0) for t in per_pass) if per_pass else 0.0
    metrics["synth.generate_s"] = statistics.median(
        tracer.totals(p).get("synth.generate", 0.0) for p in setup_passes
    )
    if walls[True] and walls[False]:
        metrics["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
    if last is not None:
        metrics.update(run.wl.counts(last))
        if metrics["train.examples"]:
            metrics["train.ms_per_example"] = 1e3 * metrics["train.sgd_train_s"] / metrics["train.examples"]
        if metrics["model.lstm_steps"]:
            metrics["model.lstm_us_per_step"] = 1e6 * metrics["model.score_importance_s"] / metrics["model.lstm_steps"]
        try:
            metrics.update(run.wl.probe(last))
            times, problems = _cli_crosscheck(run.wl, last)
        except Exception:
            times, problems = {}, [traceback.format_exc()]
        metrics.update(times)
        run.record(last, problems)
    return metrics


def _tracer_for(tracer):
    def begin(pass_id):
        tracer.pass_id = pass_id
        return tracer

    return begin


def _report(args, env: dict, run: Run, setup_times: list[float], metrics: dict, units: dict) -> None:
    print(f"videosum benchmark: workload {args.workload}, seed {args.seed}, size {args.size}, "
          f"trace {args.trace}, {args.seconds} s")
    print("environment: " + json.dumps(env, sort_keys=True))
    if not run.ref:
        status = "no reference for this seed; invariants only"
    else:
        status = "DIFFERS from the reference" if run.input_problems else "matches the reference"
    print(f"input digest: {run.digest} ({status})")
    print(f"passes: {run.attempted} attempted, {run.failed} failed; "
          f"set-up times: {', '.join(f'{t:.3f}' for t in setup_times)} s; "
          f"pass times: {', '.join(f'{t:.3f}' for t in run.walls)} s")
    for name, spec in units.items():
        print(f"  {name:32s} {metrics[name]:>16.6g} {spec[0]:9s} ({spec[1]})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("train", "summarize", "fastforward"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be non-negative and --seconds at least 1")

    _import_videosum()
    from workloads import WORKLOADS

    env = _environment()
    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        wl = WORKLOADS[args.workload](args.size, args.seed, workdir)
        ref = _load_reference(args.size, args.seed, args.workload)
        run = Run(wl, ref, args.seconds)
        if args.trace:
            tracer = Tracer()
            setup_times = run.setup(_tracer_for(tracer))
            metrics = _traced_run(run, tracer, [f"setup{i}" for i in range(len(setup_times))])
            units = PER_LAYER
            tracer.write(WORK_DIR / f"spans-{args.workload}-{args.size}-seed{args.seed}.jsonl",
                         {"workload": args.workload, "seed": args.seed, "size": args.size,
                          "input_sha": run.digest, "environment": env})
        else:
            setup_times = run.setup(lambda _: NULL)
            metrics = {"setup_s": statistics.median(setup_times), **_timed_run(run)}
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    _report(args, env, run, setup_times, metrics, units)
    print(json.dumps(_result(run, metrics, units), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
