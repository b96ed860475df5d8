#!/usr/bin/env bash
# Runs every workload once per seed at the BENCHMARK.json run length,
# appending each run's record to the given file, then prints the
# medians and quartile spreads of the end-to-end metrics.
#
#   bash bench/sets.sh set1.jsonl            # seeds 1..10
#   bash bench/sets.sh set2.jsonl 1 2 3      # chosen seeds
#
# Run it from the repository root.
set -euo pipefail

out=$1
shift
seeds=("$@")
if [ ${#seeds[@]} -eq 0 ]; then
	seeds=(1 2 3 4 5 6 7 8 9 10)
fi
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

for seed in "${seeds[@]}"; do
	for w in $workloads; do
		bash bench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 --out "$out" >/dev/null
	done
done
"${CARGO_TARGET_DIR:-.bench_build}/fredbench" -summarize "$out"
