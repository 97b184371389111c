#!/bin/sh
# Front identity against a reference revision, for performance and
# simplification changes that promise not to move a single output bit:
#
#   ci/fronts-vs-ref.sh REF     # REF: any git revision, e.g. main or HEAD~1
#
# Exports REF's tracked files with `git archive` into a scratch directory
# (the repository's worktree list and index are left alone, and local edits
# in the working tree are what gets compared), builds REF's CLI there, and
# then runs the paper's six OTA performance fits at fixed seeds with both
# CLIs on the same simulated data.  Every written front must be
# byte-identical, and so must each run's deterministic trace projection
# (`trace --counts`): per-generation error statistics, SAG's PRESS rounds
# and the final front, all at full precision.
. "$(dirname "$0")/lib.sh"

if [ $# -ne 1 ]; then
  echo "usage: ci/fronts-vs-ref.sh REF" >&2
  exit 2
fi
ref=$1
if ! rev=$(git rev-parse --verify --quiet "$ref^{commit}"); then
  echo "fronts-vs-ref: unknown revision $ref" >&2
  exit 2
fi

build_cli
mkdir "$scratch/ref"
git archive "$rev" | tar -x -C "$scratch/ref"
(cd "$scratch/ref" && dune build --root . bin/caffeine_cli.exe)
REF_CLI=$scratch/ref/_build/default/bin/caffeine_cli.exe

# The benchmark's set-up: a 243-point training DOE and a denser test DOE.
"$CLI" gen-data --dx 0.10 --out "$scratch/train.csv" > /dev/null
"$CLI" gen-data --dx 0.03 --out "$scratch/test.csv" > /dev/null

fits=0
for target in ALF fu PM voffset SRp SRn; do
  for seed in 7 11; do
    for side in ref new; do
      if [ "$side" = ref ]; then cli=$REF_CLI; else cli=$CLI; fi
      run=$scratch/$target-$seed-$side
      "$cli" fit --train "$scratch/train.csv" --test "$scratch/test.csv" --target "$target" \
        --pop 200 --gens 15 --seed "$seed" --eval-cache exact \
        --out "$run.models" --trace "$run.jsonl" > /dev/null
      "$cli" trace --counts "$run.jsonl" > "$run.counts"
    done
    diff -u "$scratch/$target-$seed-ref.models" "$scratch/$target-$seed-new.models"
    diff -u "$scratch/$target-$seed-ref.counts" "$scratch/$target-$seed-new.counts"
    fits=$((fits + 1))
  done
done

echo "fronts-vs-ref: $fits fronts and traces byte-identical to $ref ($(echo "$rev" | cut -c1-12))"
