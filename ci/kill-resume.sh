#!/bin/sh
# Kill a checkpointed fit mid-run (--kill-after exits 3), resume from the
# snapshot, and require the resumed final front to be byte-identical to the
# uninterrupted run's — at 1 and 4 domains and under the process backend at
# 3 shards, and across all three.  The last case also runs with the
# evaluation cache on: caches never enter snapshots, so a resumed cached
# run starts cold and must still reproduce the uninterrupted (cache-off)
# front exactly.
. "$(dirname "$0")/lib.sh"

build_cli

"$CLI" gen-data --out "$scratch/ckpt-data.csv"
for case in "domains:1:" "domains:4:" "processes:3:" \
            "domains:4:--eval-cache exact"; do
  backend=$(echo "$case" | cut -d: -f1)
  workers=$(echo "$case" | cut -d: -f2)
  cache=$(echo "$case" | cut -d: -f3)
  tag=$backend$workers${cache:+-cache}
  if [ "$backend" = processes ]; then
    extra="--backend processes --shard $workers $cache"
  else
    extra="--backend domains --jobs $workers $cache"
  fi
  "$CLI" fit --train "$scratch/ckpt-data.csv" --target PM --pop 30 --gens 24 --seed 17 $extra \
    --out "$scratch/front-full-$tag.txt"
  rc=0
  "$CLI" fit --train "$scratch/ckpt-data.csv" --target PM --pop 30 --gens 24 --seed 17 $extra \
    --checkpoint "$scratch/run-$tag.ckpt" --checkpoint-every 5 --kill-after 13 || rc=$?
  test "$rc" -eq 3
  "$CLI" fit --train "$scratch/ckpt-data.csv" --target PM --pop 30 --gens 24 --seed 17 $extra \
    --resume "$scratch/run-$tag.ckpt" --out "$scratch/front-resumed-$tag.txt"
  diff -u "$scratch/front-full-$tag.txt" "$scratch/front-resumed-$tag.txt"
done
diff -u "$scratch/front-full-domains1.txt" "$scratch/front-resumed-domains4.txt"
diff -u "$scratch/front-full-domains1.txt" "$scratch/front-resumed-processes3.txt"
diff -u "$scratch/front-full-domains1.txt" "$scratch/front-resumed-domains4-cache.txt"

# A truncated snapshot must be refused with a one-line file:line error, not
# a backtrace.
head -c 120 "$scratch/run-domains1.ckpt" > "$scratch/truncated.ckpt"
rc=0
"$CLI" fit --train "$scratch/ckpt-data.csv" --target PM --pop 30 --gens 24 --seed 17 \
  --resume "$scratch/truncated.ckpt" 2> "$scratch/resume-err.txt" || rc=$?
test "$rc" -eq 2
grep -q "truncated.ckpt:" "$scratch/resume-err.txt"
test "$(wc -l < "$scratch/resume-err.txt")" -eq 1

echo "kill-resume: OK"
