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
#
# Two of the fits run again on the training data packed into a column
# store of 50-row chunks (`pack --chunk-rows 50`, then `fit --train
# X.cafs`), so the search and SAG run on chunked (streamed) storage; the
# stores, fronts and trace projections must match REF's byte for byte as
# well.  One fits PM on the first 12 training rows with up to 15 bases,
# where some designs are wider than tall.  One more runs PM for
# 200 generations (about 4 s per side): late in a search the whole
# population is rank 0 and nondominated sorting meets few, wide fronts, a
# shape the 15-generation fits barely reach.
#
# Every other float writer is byte-diffed too: the two `gen-data` CSVs
# and a third at dx 0.30, where evaluation drops 171 of the 243 points (so
# which points the simulator keeps is pinned too), `analyze --op` of both
# example netlists (the DC solve, and on cs_amp an AC sweep), one
# `predict --dump` per target on the test DOE (the serve protocol's
# JSON encoding), one `--checkpoint` snapshot per target (snapshot codec
# and input fingerprint), `export --language c-front` of each front, and
# `insight --index k` for every model of each target's seed-7 front (point
# evaluation by the interpreter, Sobol indices by batched prediction).
# The new CLI must also resume REF's snapshot to REF's front.
#
# Those snapshots end in the simplifying phase, so the snapshot codec's
# other lines are diffed on PM seed 7 as well: a fit killed after
# generation 7 (`--kill-after 7`, exit 3) leaves the generation-5 snapshot
# of an in-progress island, with its whole population and generator words,
# and a `--no-sag` fit ends on an evolving snapshot with a done island.
# PM seed 11 runs once more on one worker process (`--backend processes
# --shard 1`): its front and trace projection must match too, and the
# projection's migration record carries the byte length of the done island
# line the worker sent back.
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

cli_of() {
  if [ "$1" = ref ]; then echo "$REF_CLI"; else echo "$CLI"; fi
}

# The benchmark's set-up: a 243-point training DOE and a denser test DOE.
for side in ref new; do
  cli=$(cli_of $side)
  "$cli" gen-data --dx 0.10 --out "$scratch/train-$side.csv" > /dev/null
  "$cli" gen-data --dx 0.03 --out "$scratch/test-$side.csv" > /dev/null
done
diff -u "$scratch/train-ref.csv" "$scratch/train-new.csv"
diff -u "$scratch/test-ref.csv" "$scratch/test-new.csv"
train=$scratch/train-new.csv
test=$scratch/test-new.csv

# The simulator on its own: a wide DOE, and SPICE decks through the DC
# solve and an AC sweep.
for side in ref new; do
  cli=$(cli_of $side)
  "$cli" gen-data --dx 0.30 --out "$scratch/wide-$side.csv" > /dev/null
  "$cli" analyze --netlist examples/netlists/cs_amp.sp --op --ac-input VIN --ac-output out \
    > "$scratch/cs_amp-$side.txt"
  "$cli" analyze --netlist examples/netlists/mirror.sp --op > "$scratch/mirror-$side.txt"
done
diff -u "$scratch/wide-ref.csv" "$scratch/wide-new.csv"
diff -u "$scratch/cs_amp-ref.txt" "$scratch/cs_amp-new.txt"
diff -u "$scratch/mirror-ref.txt" "$scratch/mirror-new.txt"

fits=0
insights=0
for target in ALF fu PM voffset SRp SRn; do
  for seed in 7 11; do
    for side in ref new; do
      cli=$(cli_of $side)
      run=$scratch/$target-$seed-$side
      # Seed 7 also snapshots, every 5 generations and through SAG, to one
      # path for both sides: the trace names it.
      ckpt=
      if [ "$seed" = 7 ]; then ckpt="--checkpoint $scratch/snapshot.ckpt --checkpoint-every 5"; fi
      "$cli" fit --train "$train" --test "$test" --target "$target" \
        --pop 200 --gens 15 --seed "$seed" --eval-cache exact $ckpt \
        --out "$run.models" --trace "$run.jsonl" > /dev/null
      if [ "$seed" = 7 ]; then mv "$scratch/snapshot.ckpt" "$run.ckpt"; fi
      "$cli" trace --counts "$run.jsonl" > "$run.counts"
    done
    diff -u "$scratch/$target-$seed-ref.models" "$scratch/$target-$seed-new.models"
    diff -u "$scratch/$target-$seed-ref.counts" "$scratch/$target-$seed-new.counts"
    fits=$((fits + 1))
  done

  # The other writers, on the seed-7 front.
  front=$scratch/$target-7-ref.models
  for side in ref new; do
    cli=$(cli_of $side)
    run=$scratch/$target-7-$side
    "$cli" predict --models "$front" --data "$test" --target "$target" \
      --dump "$run.dump" > /dev/null
    "$cli" export --models "$front" --language c-front > "$run.c"
  done
  for ext in ckpt dump c; do
    diff -u "$scratch/$target-7-ref.$ext" "$scratch/$target-7-new.$ext"
  done
  models=$(grep -c '^#: train_error=' "$front")
  k=0
  while [ "$k" -lt "$models" ]; do
    for side in ref new; do
      "$(cli_of $side)" insight --models "$front" --index "$k" > "$scratch/$target-7-$side.insight"
    done
    diff -u "$scratch/$target-7-ref.insight" "$scratch/$target-7-new.insight"
    k=$((k + 1))
    insights=$((insights + 1))
  done
  cp "$scratch/$target-7-ref.ckpt" "$scratch/$target-resume.ckpt"
  "$CLI" fit --train "$train" --test "$test" --target "$target" \
    --pop 200 --gens 15 --seed 7 --eval-cache exact --resume "$scratch/$target-resume.ckpt" \
    --out "$scratch/$target-resumed.models" > /dev/null
  diff -u "$front" "$scratch/$target-resumed.models"
done

# The snapshot codec's in-progress and evolving-done lines.
for side in ref new; do
  cli=$(cli_of $side)
  rc=0
  "$cli" fit --train "$train" --target PM --pop 200 --gens 15 --seed 7 --eval-cache exact \
    --checkpoint "$scratch/PM-killed-$side.ckpt" --checkpoint-every 5 --kill-after 7 \
    > /dev/null 2>&1 || rc=$?
  if [ "$rc" -ne 3 ]; then
    echo "fronts-vs-ref: $side fit --kill-after 7 exited $rc, not 3" >&2
    exit 1
  fi
  "$cli" fit --train "$train" --target PM --pop 200 --gens 15 --seed 7 --eval-cache exact \
    --no-sag --checkpoint "$scratch/PM-nosag-$side.ckpt" \
    --out "$scratch/PM-nosag-$side.models" > /dev/null
done
diff -u "$scratch/PM-killed-ref.ckpt" "$scratch/PM-killed-new.ckpt"
diff -u "$scratch/PM-nosag-ref.ckpt" "$scratch/PM-nosag-new.ckpt"
diff -u "$scratch/PM-nosag-ref.models" "$scratch/PM-nosag-new.models"

# The process backend's wire: one worker process runs the island.
for side in ref new; do
  cli=$(cli_of $side)
  run=$scratch/PM-processes-$side
  "$cli" fit --train "$train" --test "$test" --target PM \
    --pop 200 --gens 15 --seed 11 --eval-cache exact --backend processes --shard 1 \
    --out "$run.models" --trace "$run.jsonl" > /dev/null
  "$cli" trace --counts "$run.jsonl" > "$run.counts"
done
diff -u "$scratch/PM-processes-ref.models" "$scratch/PM-processes-new.models"
diff -u "$scratch/PM-processes-ref.counts" "$scratch/PM-processes-new.counts"
grep -q '"type":"migration"' "$scratch/PM-processes-new.counts"
fits=$((fits + 1))

# Streamed training data: each CLI packs the CSV into a column store of
# 50-row chunks and fits from the store.
for side in ref new; do
  "$(cli_of $side)" pack --csv "$train" --chunk-rows 50 --out "$scratch/train-$side.cafs" > /dev/null
done
cmp "$scratch/train-ref.cafs" "$scratch/train-new.cafs"
for target in PM SRp; do
  for side in ref new; do
    cli=$(cli_of $side)
    run=$scratch/$target-stream-$side
    "$cli" fit --train "$scratch/train-$side.cafs" --test "$test" --target "$target" \
      --pop 200 --gens 15 --seed 7 --eval-cache exact \
      --out "$run.models" --trace "$run.jsonl" > /dev/null
    "$cli" trace --counts "$run.jsonl" > "$run.counts"
  done
  diff -u "$scratch/$target-stream-ref.models" "$scratch/$target-stream-new.models"
  diff -u "$scratch/$target-stream-ref.counts" "$scratch/$target-stream-new.counts"
  fits=$((fits + 1))
done

# A wide design: the first 12 training rows with up to 15 bases, so some
# fits (51 of them at this seed) have more design columns than rows.  Their
# fallback takes the ridge branch without Householder, and every sweep over
# the rows is short.
head -n 13 "$train" > "$scratch/train-wide.csv"
for side in ref new; do
  cli=$(cli_of $side)
  run=$scratch/PM-wide-$side
  "$cli" fit --train "$scratch/train-wide.csv" --test "$test" --target PM \
    --pop 200 --gens 60 --seed 7 --max-bases 15 --eval-cache exact \
    --out "$run.models" --trace "$run.jsonl" > /dev/null
  "$cli" trace --counts "$run.jsonl" > "$run.counts"
done
diff -u "$scratch/PM-wide-ref.models" "$scratch/PM-wide-new.models"
diff -u "$scratch/PM-wide-ref.counts" "$scratch/PM-wide-new.counts"
fits=$((fits + 1))

# The late-search shape: PM at 200 generations.
for side in ref new; do
  cli=$(cli_of $side)
  run=$scratch/PM-long-$side
  "$cli" fit --train "$train" --test "$test" --target PM \
    --pop 200 --gens 200 --seed 7 --eval-cache exact \
    --out "$run.models" --trace "$run.jsonl" > /dev/null
  "$cli" trace --counts "$run.jsonl" > "$run.counts"
done
diff -u "$scratch/PM-long-ref.models" "$scratch/PM-long-new.models"
diff -u "$scratch/PM-long-ref.counts" "$scratch/PM-long-new.counts"
fits=$((fits + 1))

echo "fronts-vs-ref: $fits fronts and traces (2 streamed, 1 on 12 rows, 1 at 200 generations," \
  "1 on a worker process), 3 data CSVs, 2 analyze reports," \
  "a packed store," \
  "$insights insight reports," \
  "per target a prediction dump, snapshot and C export," \
  "and PM's in-progress and no-SAG snapshots byte-identical to $ref" \
  "($(echo "$rev" | cut -c1-12)); its snapshots resume to its fronts"
