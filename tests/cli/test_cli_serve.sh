#!/bin/sh
# Drives the built `mlad` binary end to end: trains a small model, then
# checks that
#   1. the default serve and --shards 4 raise the same alarms,
#   2. --park-after-ms parks the short capture's link once it goes silent,
#      without changing a verdict,
#   3. --adapt on the paced-replay front end publishes adapted weights,
#   4. bad values and unknown or retired flags are refused, naming the
#      offending flag or rule.
#
# Usage: test_cli_serve.sh <path-to-mlad>
set -eu
mlad=$1
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

"$mlad" simulate --cycles 3000 --seed 11 --arff train.arff \
  --capture a.cap > /dev/null
"$mlad" simulate --cycles 800 --seed 12 --capture b.cap > /dev/null
"$mlad" train --arff train.arff --model m.model --epochs 8 --hidden 32 \
  --batch 8 --threads 1 > /dev/null

# 1. Shard count never moves a verdict; only the cross-link order of the
#    sink lines may differ, so the streams compare as sorted line sets.
"$mlad" serve --captures a.cap,b.cap --model m.model --sink one.jsonl \
  > /dev/null
"$mlad" serve --captures a.cap,b.cap --model m.model --shards 4 \
  --sink four.jsonl > /dev/null
test -s one.jsonl || fail "the default serve raised no alarms"
sort one.jsonl > one.sorted
sort four.jsonl > four.sorted
cmp -s one.sorted four.sorted ||
  fail "--shards 4 alarms differ from the default serve"

# 2. b.cap ends long before a.cap, so its silent link blocks the gate while
#    a.cap's tail queues up: the straggler ladder parks it, and a parked
#    link keeps bit-identical verdicts.
"$mlad" serve --captures a.cap,b.cap --model m.model --park-after-ms 1 \
  --sink park.jsonl > park.log
parks=$(sed -n 's/.*straggler policy: \([0-9]*\) parks.*/\1/p' park.log)
[ "${parks:-0}" -ge 1 ] || fail "--park-after-ms 1 never parked"
sort park.jsonl > park.sorted
cmp -s one.sorted park.sorted ||
  fail "--park-after-ms 1 alarms differ from the default serve"

# 3. Online adaptation on a front end other than the capture drain, over
#    anomaly-free traffic (window 3: this small model alarms on about half
#    of it, so longer verdict-clean windows are rare).
"$mlad" simulate --cycles 400 --seed 21 --attacks off --capture c.cap \
  > /dev/null
"$mlad" simulate --cycles 400 --seed 22 --attacks off --capture d.cap \
  > /dev/null
"$mlad" serve --source replay --speed 0 --captures c.cap,d.cap \
  --model m.model --adapt --adapt-interval 100 --adapt-window 3 \
  --adapt-min-windows 2 --sink adapt.jsonl > /dev/null
swaps=$(grep -c '"type": "swap"' adapt.jsonl || true)
[ "$swaps" -ge 1 ] || fail "serve --adapt --source replay published no weights"

# 4. Refusals: a non-zero exit whose message matches the pattern. The idle
#    timeout ends a listener that wrongly started.
refused() {
  pattern=$1
  shift
  if "$mlad" "$@" > /dev/null 2> refusal.txt; then
    fail "accepted: $*"
  fi
  grep -q -e "$pattern" refusal.txt ||
    fail "refusal of \"$*\" does not say \"$pattern\": $(cat refusal.txt)"
}
refused '--listen' serve --source tcp --listen 70000 --idle-timeout-ms 200 \
  --model m.model
refused 'shards == 1' serve --captures c.cap,d.cap --model m.model --adapt \
  --shards 2
refused '--shards' serve --captures c.cap,d.cap --model m.model --shards -1
refused '--park-after-ms' serve --captures c.cap,d.cap --model m.model \
  --park-after-ms -5
# Numeric flags of the other subcommands are checked before any file is
# read or trained on, so a refused train writes no model.
refused '--batch' train --arff train.arff --model bad.model --batch -1
test ! -e bad.model || fail "train --batch -1 wrote a model"
refused '--threads' evaluate --arff train.arff --model m.model --threads -1
refused '--streams' evaluate --arff train.arff --model m.model --streams abc
# --threads only splits the batched evaluator's rows; alone it selects nothing.
refused '--streams' evaluate --arff train.arff --model m.model --threads 4
# main() prefixes every error with "mlad <cmd>: ", so the message must not
# repeat the command.
refused '--source must be' serve --source bogus --model m.model
if grep -q 'serve: serve:' refusal.txt; then
  fail "refusal repeats its command: $(cat refusal.txt)"
fi
refused 'unknown flag --park-after' serve --captures c.cap,d.cap \
  --model m.model --park-after 6
refused 'unknown flag --bogus-flag' serve --captures c.cap,d.cap \
  --model m.model --bogus-flag 1

echo "cli serve OK: $(wc -l < one.jsonl) alarms at 1 and 4 shards and" \
  "under $parks park(s), $swaps weight swaps under --adapt --source replay"
