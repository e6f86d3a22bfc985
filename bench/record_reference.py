"""Record the reference outputs that benchmark passes are checked against.

Run from the repository root:

    python3 bench/record_reference.py --size full --seeds 0 1 2

For each seed and workload it runs set-up and one pass, checks the pass's
invariants, and stores the input digest and the pass's outputs in
bench/reference.json under the size and seed.  Entries for other sizes and
seeds are kept.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

from run import REFERENCE, WORK_DIR, _import_videosum
from spans import NULL


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--size", choices=("full", "tiny"), required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)

    _import_videosum()
    from workloads import WORKLOADS

    refs = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
    WORK_DIR.mkdir(exist_ok=True)
    for seed in args.seeds:
        for name, cls in WORKLOADS.items():
            with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
                wl = cls(args.size, seed, Path(tmp))
                digest = wl.setup(NULL)
                out = wl.run_pass(NULL)
                problems = wl.check(out, None)
                if problems:
                    sys.exit(f"{name} seed {seed}: " + "; ".join(problems))
                entry = {"input_sha": digest, **wl.reference(out)}
            refs.setdefault(args.size, {}).setdefault(str(seed), {})[name] = entry
            print(f"recorded {args.size} seed {seed} {name}", flush=True)
    REFERENCE.write_text(json.dumps(refs, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
