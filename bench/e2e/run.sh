#!/usr/bin/env bash
# Builds the end-to-end serving benchmark and runs its workloads, one
# process each. Usage, from the repository root:
#   bench/e2e/run.sh [--seed N] [--trace] [--repeat K] [--smoke]
# See bench/e2e/README.md; run.py does the work.
set -euo pipefail
exec python3 "$(dirname "$0")/run.py" "$@"
