"""The full pipeline through the command-line surface.

Runs gen-synth -> train -> summarize -> eval plus the scoring and
fast-forward commands in a temporary directory, the same way a shell
session would. Every command takes explicit --in/--out paths and is
reproducible byte-for-byte for a fixed --seed.
"""

import json
import tempfile
from pathlib import Path

from videosum import cli_dispatch

work = Path(tempfile.mkdtemp(prefix="videosum-demo-"))
print("working directory:", work)

def sh(*argv):
    print("\n$ videosum " + " ".join(argv))
    code = cli_dispatch(list(argv))
    assert code == 0, f"exit code {code}"

features = work / "features.vsf"
truth = work / "truth.json"
descs = work / "descs.vsd"
labels = work / "pairs.txt"
model = work / "model.npz"
summary = work / "summary.json"
scores = work / "scores.vsf"
ff = work / "fastforward.json"

sh("gen-synth", "--seed", "0",
   "--features", str(features), "--truth", str(truth),
   "--descs", str(descs), "--labels", str(labels))

sh("train",
   "--features", str(features), "--descs", str(descs), "--pairs", str(labels),
   "--seg-len", "36", "--embed-dim", "8", "--hidden", "16",
   "--margin", "1.0", "--lr", "0.1", "--epochs", "100", "--seed", "0",
   "--out", str(model))

sh("summarize",
   "--features", str(features), "--model", str(model),
   "--seg-len", "4", "--k", "5", "--out", str(summary))

sh("eval", "--summary", str(summary), "--truth", str(truth))

sh("score-lstm", "--features", str(features), "--hidden", "12", "--seed", "1",
   "--out", str(scores))

sh("fastforward", "--scores", str(scores), "--speedup", "4", "--max-skip", "8",
   "--lambda-speed", "1.0", "--lambda-sem", "0.5", "--out", str(ff))

sh("gradcheck", "--trials", "3", "--seed", "0")

print("\nsummary document:")
print(json.dumps(json.loads(summary.read_text()), indent=2, sort_keys=True))
