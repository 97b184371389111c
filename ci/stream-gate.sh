#!/bin/sh
# The streaming (out-of-core) contract, end to end:
#
#   1. Ingestion bugfixes at the CLI level: CRLF files parse (and error
#      messages quote cells without the carriage return), duplicate CSV
#      headers are rejected naming the column and both positions,
#      empty, truncated or foreign .cafs stores exit 2 naming the file,
#      and so does training data with no design variable or a non-finite
#      target; missing input files and out-of-range option values exit 2
#      naming the file or the option.
#   2. Front bit-identity: the same seeded fit must print byte-identical
#      fronts from a CSV (resident) and from the CSV packed into a .cafs
#      store (streamed), across chunk sizes and execution backends.
#   3. The memory gate: bench --experiment stream fits >= 2^20 waveform
#      samples and asserts (via VmHWM, in process) that peak RSS stays
#      under 50% of the dense feature-matrix footprint; when
#      /usr/bin/time is available the assertion is repeated externally
#      against its "Maximum resident set size".
#
# Artifacts: BENCH_stream.json in the repo root (uploaded by CI).
. "$(dirname "$0")/lib.sh"

build_cli
dune build bench/main.exe
BENCH=_build/default/bench/main.exe

# --- 1. ingestion bugfix sweep -------------------------------------------

"$CLI" gen-data --out "$scratch/data.csv"

# CRLF input must parse identically to LF input.
awk '{ printf "%s\r\n", $0 }' "$scratch/data.csv" > "$scratch/data-crlf.csv"
"$CLI" fit --train "$scratch/data.csv" --target PM --pop 20 --gens 5 --seed 9 \
  --out "$scratch/front-lf.txt"
"$CLI" fit --train "$scratch/data-crlf.csv" --target PM --pop 20 --gens 5 --seed 9 \
  --out "$scratch/front-crlf.txt"
diff -u "$scratch/front-lf.txt" "$scratch/front-crlf.txt"

# A bad cell in a CRLF file must be quoted without the carriage return.
printf 'x,PM\r\n1,zzz\r\n' > "$scratch/bad-crlf.csv"
if "$CLI" fit --train "$scratch/bad-crlf.csv" --target PM --out "$scratch/never.txt" \
    2> "$scratch/bad-crlf.err"; then
  echo "stream-gate: bad CRLF cell was accepted" >&2; exit 1
fi
grep -q 'bad number "zzz"' "$scratch/bad-crlf.err"
if grep -q "$(printf '\r')" "$scratch/bad-crlf.err"; then
  echo "stream-gate: carriage return leaked into the error message" >&2; exit 1
fi

# Duplicate headers must be rejected naming the column and both positions.
printf 'x,y,x\n1,2,3\n' > "$scratch/dup.csv"
if "$CLI" fit --train "$scratch/dup.csv" --target y --out "$scratch/never.txt" \
    2> "$scratch/dup.err"; then
  echo "stream-gate: duplicate header was accepted" >&2; exit 1
fi
grep -q 'duplicate column name "x"' "$scratch/dup.err"
grep -q 'columns 1 and 3' "$scratch/dup.err"

# A corrupt column store must be refused naming the file (exit 2, as for
# a bad CSV), never with an uncaught exception.
"$CLI" pack --csv "$scratch/data.csv" --out "$scratch/whole.cafs" > /dev/null
: > "$scratch/empty.cafs"
head -c 5000 "$scratch/whole.cafs" > "$scratch/truncated.cafs"
{ printf 'CAFSTOR0'; tail -c +9 "$scratch/whole.cafs"; } > "$scratch/bad-magic.cafs"
for store in empty truncated bad-magic; do
  status=0
  "$CLI" fit --train "$scratch/$store.cafs" --target PM --out "$scratch/never.txt" \
    2> "$scratch/$store.err" || status=$?
  if [ "$status" -ne 2 ]; then
    echo "stream-gate: $store store exited with status $status, expected 2" >&2; exit 1
  fi
  grep -qF "cannot read $scratch/$store.cafs" "$scratch/$store.err"
  if grep -q 'internal error' "$scratch/$store.err"; then
    echo "stream-gate: $store store raised an uncaught exception" >&2; exit 1
  fi
done

# Training data a fit cannot use must be refused naming the file (exit 2),
# never with an uncaught exception: a CSV whose only column is the target,
# the same data packed into a store, and a target column of NaNs.
printf 'PM\n1\n2\n3\n' > "$scratch/target-only.csv"
"$CLI" pack --csv "$scratch/target-only.csv" --out "$scratch/target-only.cafs" > /dev/null
printf 'x,PM\n1,nan\n2,nan\n3,nan\n' > "$scratch/nan-target.csv"
for input in target-only.csv target-only.cafs nan-target.csv; do
  status=0
  "$CLI" fit --train "$scratch/$input" --target PM --out "$scratch/never.txt" \
    2> "$scratch/$input.err" || status=$?
  if [ "$status" -ne 2 ]; then
    echo "stream-gate: $input exited with status $status, expected 2" >&2; exit 1
  fi
  grep -qF "cannot read $scratch/$input" "$scratch/$input.err"
  if grep -q 'internal error' "$scratch/$input.err"; then
    echo "stream-gate: $input raised an uncaught exception" >&2; exit 1
  fi
done

# Missing input files and option values a run cannot use are refused with
# one line naming the file or the option (exit 2), never with an uncaught
# exception.
missing=$scratch/no-such-file
refused() {
  expected=$1
  shift
  status=0
  "$CLI" "$@" > "$scratch/refused.out" 2>&1 || status=$?
  if [ "$status" -ne 2 ]; then
    echo "stream-gate: '$*' exited with status $status, expected 2" >&2; exit 1
  fi
  grep -qF -- "$expected" "$scratch/refused.out"
  if grep -q 'internal error' "$scratch/refused.out"; then
    echo "stream-gate: '$*' raised an uncaught exception" >&2; exit 1
  fi
  test "$(wc -l < "$scratch/refused.out")" -eq 1
}
refused "cannot read $missing" trace "$missing"
refused "cannot read $missing" grammar --check "$missing"
refused "cannot read $missing" fit --train "$scratch/data.csv" --target PM --grammar "$missing"
refused "cannot read $scratch" fit --train "$scratch" --target PM
refused "--pop 1" fit --train "$scratch/data.csv" --target PM --pop 1
refused "--max-bases 0" fit --train "$scratch/data.csv" --target PM --max-bases 0
refused "--checkpoint-every 0" fit --train "$scratch/data.csv" --target PM --checkpoint-every 0
refused "--chunk-rows 0" pack --csv "$scratch/data.csv" --chunk-rows 0 --out "$scratch/never.cafs"
awk -F, 'NR == 2 { $NF = "nan" } { print }' OFS=, "$scratch/data.csv" > "$scratch/nan-first.csv"
"$CLI" fit --train "$scratch/data.csv" --target SRn --pop 20 --gens 2 --seed 9 \
  --out "$scratch/srn.txt" > /dev/null
refused "cannot read $scratch/nan-first.csv: target SRn at data row 1" \
  predict --models "$scratch/srn.txt" --data "$scratch/nan-first.csv" --target SRn

# --- 2. resident vs streamed front bit-identity ---------------------------

"$CLI" fit --train "$scratch/data.csv" --target PM --pop 30 --gens 8 --seed 17 \
  --out "$scratch/front-dense.txt"
"$CLI" pack --csv "$scratch/data.csv" --chunk-rows 37 --out "$scratch/data-37.cafs"
"$CLI" fit --train "$scratch/data-37.cafs" --target PM --pop 30 --gens 8 --seed 17 \
  --out "$scratch/front-stream.txt"
diff -u "$scratch/front-dense.txt" "$scratch/front-stream.txt"

# Packed column-store input, across backends.
"$CLI" pack --csv "$scratch/data.csv" --chunk-rows 64 --out "$scratch/data.cafs"
"$CLI" fit --train "$scratch/data.cafs" --target PM --pop 30 --gens 8 --seed 17 \
  --backend domains --jobs 3 --out "$scratch/front-cafs-domains.txt"
diff -u "$scratch/front-dense.txt" "$scratch/front-cafs-domains.txt"
"$CLI" fit --train "$scratch/data.cafs" --target PM --pop 30 --gens 8 --seed 17 \
  --backend processes --shard 2 --out "$scratch/front-cafs-proc.txt"
diff -u "$scratch/front-dense.txt" "$scratch/front-cafs-proc.txt"

# --- 3. million-sample RSS gate -------------------------------------------

# The bench asserts VmHWM < 50% of the dense footprint in process and
# exits non-zero on violation (and on streamed-vs-dense disagreement).
if [ -x /usr/bin/time ]; then
  /usr/bin/time -v "$BENCH" --experiment stream --stream-only --smoke \
    2> "$scratch/time.out"
  max_kb=$(awk '/Maximum resident set size/ { print $NF }' "$scratch/time.out")
  budget_kb=$(awk -F'[ ,]+' '/"budget_bytes"/ { print int($3 / 1024) }' BENCH_stream.json)
  echo "stream-gate: external max RSS ${max_kb} kB (budget ${budget_kb} kB)"
  if [ "$max_kb" -ge "$budget_kb" ]; then
    echo "stream-gate: external RSS measurement exceeds the 50% budget" >&2
    exit 1
  fi
else
  echo "stream-gate: /usr/bin/time not available; relying on the in-process VmHWM assertion"
  "$BENCH" --experiment stream --stream-only --smoke
fi

# Full run: streamed coefficients vs the in-memory path (1e-8 gate, in
# practice bit-identical) and the final BENCH_stream.json artifact.
"$BENCH" --experiment stream --smoke

echo "stream-gate: OK"
