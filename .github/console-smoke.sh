#!/usr/bin/env bash
# Runs every tempbc command, and each algorithm and path optimality at least
# once, through the installed console script on a five-edge graph; exits
# non-zero at the first command that fails.
set -euo pipefail
dir="${RUNNER_TEMP:-$(mktemp -d)}"
printf '1 2 1\n2 3 2\n1 3 2\n3 4 3\n2 4 3\n' > "$dir/g.txt"
tempbc exact "$dir/g.txt" --threads 2 --scores "$dir/exact.csv" > /dev/null
tempbc exact "$dir/g.txt" --opt pfm > /dev/null
tempbc exact "$dir/g.txt" --opt sfm > /dev/null
tempbc fixed "$dir/g.txt" --algo ob --samples 20 --scores "$dir/ob.csv" > /dev/null
tempbc fixed "$dir/g.txt" --algo ob --opt sfm --samples 20 > /dev/null
tempbc fixed "$dir/g.txt" --algo trk --opt sfm --samples 20 > /dev/null
tempbc fixed "$dir/g.txt" --algo rtb --samples 20 > /dev/null
tempbc fixed "$dir/g.txt" --algo ob --bound vc --threads 2 > /dev/null
tempbc fixed "$dir/g.txt" --algo ob --samples 20 --undirected --dedupe > /dev/null
tempbc progressive "$dir/g.txt" --algo ob --epsilon 0.3 --threads 2 > /dev/null
tempbc progressive "$dir/g.txt" --algo trk --epsilon 0.3 > /dev/null
tempbc progressive "$dir/g.txt" --algo prtb --max-samples 40 > /dev/null
tempbc diameter "$dir/g.txt" --samples 4 > /dev/null
tempbc diameter "$dir/g.txt" --samples 2 --no-replace > /dev/null
tempbc compare "$dir/exact.csv" "$dir/ob.csv" > /dev/null
# the same scores in the opposite row order compare by node id
{ head -n 1 "$dir/exact.csv"; tail -n +2 "$dir/exact.csv" | tac; } > "$dir/reversed.csv"
tempbc compare "$dir/exact.csv" "$dir/reversed.csv" > /dev/null
