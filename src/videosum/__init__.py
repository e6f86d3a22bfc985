"""Video summarization engine over per-frame feature streams.

Pipeline: per-frame features are cut into uniform segments, embedded into a
joint video-description space by two small tanh subnetworks trained with a
contrastive loss, clustered with k-medoids, and the medoid segments emitted
in temporal order as the summary.  The package also provides a bidirectional
LSTM frame-importance scorer, semantic fast-forward scoring and frame
selection, and keyshot/jitter/speed-up evaluation metrics.  The package
re-exports each module's `__all__`, the one list of its public names.
"""

from . import io, metrics, model, summarize, synth, train
from .cli import cli_dispatch
from .io import *
from .metrics import *
from .model import *
from .summarize import *
from .synth import *
from .train import *

__all__ = [
    *io.__all__, *metrics.__all__, *model.__all__,
    *summarize.__all__, *synth.__all__, *train.__all__,
    "cli_dispatch",
]

__version__ = "0.1.0"
