"""Print the algorithmic counts of one ``perfbench/run.py --trace 1`` run.

The counts are those a change to the solver's speed alone leaves as they
are: the branch-node, leaf and pivot-case counts, the reduction fires and
fixpoint calls, the compression guesses, the parity pairs of the base
leaves and the FVS sizes. Each prints as one ``workload seed name value``
line, in name order, read off the JSON object on the run's last line.

tests/bench_counts.txt holds the expected lines for every workload at
seeds 0 and 104729; CI diffs this script's output against it. Re-record it
only with a change that is meant to change these counts.

Usage:
    python3 perfbench/run.py --workload parity-batch --seed 0 --trace 1 > run.out
    python3 scripts/bench_counts.py run.out parity-batch 0
"""
import json
import sys

PREFIXES = ("branching.", "reductions.fires.", "pipeline.guesses")
NAMES = ("reductions.fixpoint_calls", "basecase.pairs", "basecase.tent_pairs", "fvs.size")


def counts(metrics: dict) -> dict[str, int]:
    """The pinned counts among a run's metrics, by name."""
    return {
        name: m["value"] for name, m in sorted(metrics.items())
        if m["unit"] == "count" and (name.startswith(PREFIXES) or name in NAMES)
    }


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        sys.exit("usage: bench_counts.py RUN_OUTPUT WORKLOAD SEED")
    path, workload, seed = argv
    with open(path) as fh:
        last = fh.read().splitlines()[-1]
    for name, value in counts(json.loads(last)["metrics"]).items():
        print(f"{workload} {seed} {name} {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
