#!/usr/bin/env bash
# The one command CI runs for the benchmark: every workload once at smoke
# scale (traced and untraced, answers checked), then the smoke tests.
# Run from the repository root.
set -euo pipefail
cd "$(dirname "$0")/../.."
python3 -m benchmarks.e2e run --scale smoke --seconds 1
python3 -m benchmarks.e2e run --scale smoke --seconds 1 --traced
python3 -m pytest benchmarks/e2e -q
