"""Record the output digests that bench/run.py checks, from the current code.

    python3 bench/record_reference.py [--scale paper|tiny] SEED [SEED ...]

Run it on a commit whose outputs are known good.  For each seed it makes
one untimed pass of every workload and merges what the passes produced
(sha256 digests of the model snapshot, eval report, sweep CSV, gen-synth
dataset and preprocess outputs, plus held-out and k = max-train sweep
accuracy) into bench/reference.json.  A change that alters any of them
fails the benchmark's output checks until the reference is re-recorded
with a stated reason.
"""

import argparse
import json
import sys

import run as bench


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--scale", choices=("paper", "tiny"), default="paper")
    parser.add_argument("seeds", nargs="+", type=int)
    args = parser.parse_args(argv)
    scale = bench.PAPER if args.scale == "paper" else bench.TINY
    sys.path.insert(0, str(bench.SRC))
    doc = json.loads(bench.REFERENCE.read_text()) if bench.REFERENCE.is_file() else {}
    table = doc.setdefault(scale.name, {})
    for seed in args.seeds:
        recorded = {}
        for workload, one_pass in bench.PASSES.items():
            run = bench.Run(workload, seed, scale, {})
            one_pass(run, bench.prepare(run, 1), traced=False)
            bench.remove_path(run.work)
            if run.failed:
                print(f"seed {seed} {workload}: {run.problems}", file=sys.stderr)
                return 1
            recorded.update(run.expected)
        table[str(seed)] = dict(sorted(recorded.items()))
        doc[scale.name] = dict(sorted(table.items(), key=lambda kv: int(kv[0])))
        bench.REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"seed {seed}: recorded {sorted(recorded)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
