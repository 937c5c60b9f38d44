#!/usr/bin/env bash
# End-to-end smoke test of the segugio CLI: simgen -> train -> classify ->
# report -> inspect, exercising the trace formats (binlog, dnstap, format
# autodetection), the deprecated aliases, the model round trip, and the
# rejection of a corrupted model.
set -euo pipefail
CLI="$1"
DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT

"$CLI" simgen --out "$DIR" --days 2 --isp 0 --format binlog >/dev/null
test -f "$DIR/day0.bin"
test -f "$DIR/whitelist.txt"

# simgen creates a missing --out directory, parents included.
"$CLI" simgen --out "$DIR/not/yet/there" --days 1 --isp 0 >/dev/null
test -f "$DIR/not/yet/there/day0.tsv"
test -f "$DIR/not/yet/there/pdns.txt"

# --input sniffs the SEGTRC1 magic; no --format needed.
"$CLI" train --input "$DIR/day0.bin" \
  --blacklist "$DIR/blacklist-day0.txt" --whitelist "$DIR/whitelist.txt" \
  --activity "$DIR/activity.txt" --pdns "$DIR/pdns.txt" \
  --model "$DIR/model.txt" --trees 20 >/dev/null
test -s "$DIR/model.txt"

OUT="$("$CLI" classify --input "$DIR/day1.bin" --format binlog --model "$DIR/model.txt" \
  --blacklist "$DIR/blacklist-day1.txt" --whitelist "$DIR/whitelist.txt" \
  --activity "$DIR/activity.txt" --pdns "$DIR/pdns.txt" --threshold 0.5)"
echo "$OUT" | grep -q "unknown domains scored"

"$CLI" report --input "$DIR/day1.bin" --model "$DIR/model.txt" \
  --blacklist "$DIR/blacklist-day1.txt" --whitelist "$DIR/whitelist.txt" \
  --activity "$DIR/activity.txt" --pdns "$DIR/pdns.txt" --threshold 0.5 \
  | grep -q "remediation worklist"

"$CLI" inspect --model "$DIR/model.txt" | grep -q "random forest"

# Wire-format round trip: emit a dnstap capture and classify straight from
# it (autodetected from the frame-streams control escape).
"$CLI" simgen --out "$DIR" --days 2 --isp 0 --format dnstap >/dev/null
test -f "$DIR/day1.dnstap"
"$CLI" classify --input "$DIR/day1.dnstap" --model "$DIR/model.txt" \
  --blacklist "$DIR/blacklist-day1.txt" --whitelist "$DIR/whitelist.txt" \
  --activity "$DIR/activity.txt" --pdns "$DIR/pdns.txt" --threshold 0.5 \
  | grep -q "unknown domains scored"

# Error paths return non-zero with a clear message.
if "$CLI" classify --trace "$DIR/day1.bin" --model "$DIR/model.txt" \
  --blacklist "$DIR/blacklist-day1.txt" --whitelist "$DIR/whitelist.txt" \
  --activity "$DIR/activity.txt" --pdns "$DIR/pdns.txt" 2>"$DIR/no-input.txt"; then
  echo "expected failure without --input" >&2
  exit 1
fi
grep -q "pass --input FILE" "$DIR/no-input.txt"
if "$CLI" classify --input /nonexistent --model "$DIR/model.txt" \
  --blacklist "$DIR/blacklist-day1.txt" --whitelist "$DIR/whitelist.txt" \
  --activity "$DIR/activity.txt" --pdns "$DIR/pdns.txt" 2>/dev/null; then
  echo "expected failure on missing trace" >&2
  exit 1
fi
if "$CLI" classify --input "$DIR/day1.bin" --format bogus --model "$DIR/model.txt" \
  --blacklist "$DIR/blacklist-day1.txt" --whitelist "$DIR/whitelist.txt" \
  --activity "$DIR/activity.txt" --pdns "$DIR/pdns.txt" 2>/dev/null; then
  echo "expected failure on unknown --format" >&2
  exit 1
fi

# A hostile model is rejected with a message, not a signal or a hang: one
# split node of the trained model gets a child index far out of range.
awk 'in_tree && !done && NF == 6 && $1 != "-1" { $3 = "99999999"; done = 1 }
     /^tree / { in_tree = 1 }
     { print }' "$DIR/model.txt" > "$DIR/hostile-model.txt"
if cmp -s "$DIR/model.txt" "$DIR/hostile-model.txt"; then
  echo "hostile model: no split node to corrupt" >&2
  exit 1
fi
STATUS=0
timeout 20 "$CLI" classify --input "$DIR/day1.bin" --model "$DIR/hostile-model.txt" \
  --blacklist "$DIR/blacklist-day1.txt" --whitelist "$DIR/whitelist.txt" \
  --activity "$DIR/activity.txt" --pdns "$DIR/pdns.txt" 2>"$DIR/hostile.txt" >/dev/null ||
  STATUS=$?
# 0 is acceptance; 124 is the timeout; 125 and up is a launch failure or a signal.
if [ "$STATUS" -eq 0 ] || [ "$STATUS" -ge 124 ]; then
  echo "hostile model: expected a clean failure, got exit status $STATUS" >&2
  exit 1
fi
grep -q "child index out of range" "$DIR/hostile.txt"

echo "cli smoke ok"
