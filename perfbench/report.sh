#!/usr/bin/env bash
# Prints every metric of every workload, by name and with its unit: the
# untraced end-to-end run, then the traced per-layer run, of port-race,
# fleet-ladder and verified-serve. Run from the repository root:
#
#   bash perfbench/report.sh [seed] [seconds]
#
# Exits non-zero if any run fails a check.
set -euo pipefail

seed=${1:-1}
seconds=${2:-10}
status=0
for w in port-race fleet-ladder verified-serve; do
	for trace in 0 1; do
		echo "== $w trace=$trace"
		bash perfbench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" |
			grep -E '^(env|metric|fact|layer|FAILED|wrote) ' || status=1
	done
done
exit $status
