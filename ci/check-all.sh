#!/bin/sh
# Run every CLI-level determinism and serving contract locally, in the order
# CI runs them.  Each script is also independently runnable.
set -eu

here=$(dirname "$0")
for script in trace-determinism-jobs backend-determinism kill-resume serve-e2e \
              stream-gate; do
  echo "=== ci/$script.sh"
  "$here/$script.sh"
done
echo "=== all CI contract scripts passed"
