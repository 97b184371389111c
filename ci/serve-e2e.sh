#!/bin/sh
# Serving end to end: fit a small front, pipe a predict/front/explain/stats
# session through `serve` on stdin/stdout, and require the served
# predictions to be byte-identical to the predict CLI's direct Model
# evaluation of the same front on the same rows.  Then the lifecycle
# contracts: SIGTERM mid-session drains cleanly (response completes, exit
# 0), and a malformed front file is refused with a one-line file:line
# error.
. "$(dirname "$0")/lib.sh"

build_cli

"$CLI" gen-data --out "$scratch/serve-data.csv"
"$CLI" fit --train "$scratch/serve-data.csv" --target PM --pop 30 --gens 10 --seed 17 \
  --backend seq --out "$scratch/front.txt"

# Direct evaluation reference: one [[...],...] line in the serve protocol's
# own float encoding.
"$CLI" predict --models "$scratch/front.txt" --data "$scratch/serve-data.csv" --target PM \
  --dump "$scratch/direct.json" > /dev/null

# One predict request carrying every CSV row.  The design variables are the
# first NF-6 columns (the trailing 6 are the OTA performances); fields pass
# through awk untouched, so the server parses the same decimal text the
# predict CLI read.
request=$(awk -F, '
  NR == 1 { dims = NF - 6; next }
  {
    row = ""
    for (i = 1; i <= dims; i++) row = row (i > 1 ? "," : "") $i
    rows = rows (NR > 2 ? "," : "") "[" row "]"
  }
  END { print "{\"op\":\"predict\",\"rows\":[" rows "]}" }
' "$scratch/serve-data.csv")

{
  echo '{"op":"front"}'
  echo '{"op":"explain","index":0}'
  echo '{"op":"explain","index":0,"language":"c"}'
  echo "$request"
  echo '{"op":"stats"}'
} | "$CLI" serve --front "$scratch/front.txt" \
    > "$scratch/session.txt" 2> "$scratch/banner.txt"

test "$(wc -l < "$scratch/session.txt")" -eq 5
test "$(grep -c '"ok":true' "$scratch/session.txt")" -eq 5

# The predict response keeps "outputs" last so the served rows peel off with
# sed; they must match the direct dump byte for byte.
sed -n 's/.*"outputs"://p' "$scratch/session.txt" | sed 's/}$//' > "$scratch/served.json"
diff -u "$scratch/direct.json" "$scratch/served.json"

# SIGTERM drain: keep the input open via a FIFO, get one response in flight,
# then TERM the server — it must flush the response and exit 0.
mkfifo "$scratch/in"
"$CLI" serve --front "$scratch/front.txt" \
  < "$scratch/in" > "$scratch/drain-out.txt" 2> /dev/null &
pid=$!
exec 3> "$scratch/in"
printf '%s\n' "$request" >&3
tries=0
while [ ! -s "$scratch/drain-out.txt" ] && [ "$tries" -lt 100 ]; do
  sleep 0.1
  tries=$((tries + 1))
done
kill -TERM "$pid"
rc=0
wait "$pid" || rc=$?
exec 3>&-
test "$rc" -eq 0
test "$(grep -c '"ok":true' "$scratch/drain-out.txt")" -eq 1

# A malformed front is refused with a one-line error naming file and line.
printf 'vars: a b\n1 + +\n' > "$scratch/bad.txt"
rc=0
"$CLI" serve --front "$scratch/bad.txt" < /dev/null \
  2> "$scratch/serve-err.txt" || rc=$?
test "$rc" -eq 2
grep -q "bad.txt:2:" "$scratch/serve-err.txt"
test "$(wc -l < "$scratch/serve-err.txt")" -eq 1

echo "serve-e2e: OK"
