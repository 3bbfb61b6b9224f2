#!/usr/bin/env bash
# Runs every workload once per seed, alternating the order of the workloads,
# and collects the run records in one file for `run.sh -compare`.
# usage: bash bench/sets.sh records.jsonl [first_seed [last_seed]]
set -euo pipefail
cd "$(dirname "$0")/.."
out=$1 first=${2:-1} last=${3:-10}
workloads=(read_hot read_cold read_write_mix write_eager crash_recovery)
rm -f bench/out/runs.jsonl
for seed in $(seq "$first" "$last"); do
	order=("${workloads[@]}")
	if ((seed % 2 == 0)); then
		order=($(printf '%s\n' "${workloads[@]}" | tac))
	fi
	for w in "${order[@]}"; do
		bash bench/run.sh --workload "$w" --seed "$seed" --trace 0 | tail -n 1
	done
done
mv bench/out/runs.jsonl "$out"
