#!/usr/bin/env bash
# Kill-and-resume smoke test for the sweep orchestrator (docs/sweep.md).
#
# Runs pmpexperiments at quick scale three times:
#   1. an uninterrupted reference run,
#   2. a run SIGINT'd mid-sweep,
#   3. a -resume of the interrupted run,
# then asserts that
#   a. the reference store's canonical dump (pmpsweepd -canon) hashes
#      to the committed scripts/quick_canon.sha256, pinning every job
#      ID, label, variant, placement and stored result;
#   b. the reference run's rendered tables (timing lines stripped) are
#      byte-identical to the committed docs/results-quick.txt, pinning
#      row labels, row order, notes and number formatting;
#   c. no job completed before the interrupt is re-recorded by the
#      resume (its store record count is unchanged), and
#   d. the resumed run's rendered tables are byte-identical to the
#      uninterrupted reference (timing lines stripped).
#
# A change that alters QuickScale results or job identity on purpose
# regenerates the digest, and one that alters a rendered table
# regenerates docs/results-quick.txt (docs/sweep.md, "Canonical store
# digest").
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# strip drops the timing lines, the only part of pmpexperiments'
# stdout that varies from run to run.
strip() { grep -v -E '^-- .* completed in |^total elapsed: ' "$1"; }

echo "== build =="
go build -o "$tmp/pmpexperiments" ./cmd/pmpexperiments
go build -o "$tmp/pmpsweepd" ./cmd/pmpsweepd

echo "== reference (uninterrupted) run =="
"$tmp/pmpexperiments" -scale quick -store "$tmp/ref.jsonl" \
  >"$tmp/ref.out" 2>"$tmp/ref.err"

echo "== assert: canonical store matches the committed digest =="
want=$(cut -d' ' -f1 scripts/quick_canon.sha256)
got=$("$tmp/pmpsweepd" -canon "$tmp/ref.jsonl" | sha256sum | cut -d' ' -f1)
if [ "$got" != "$want" ]; then
  echo "FAIL: QuickScale canonical store sha256 $got, want $want"
  echo "      (scripts/quick_canon.sha256; see docs/sweep.md to regenerate)"
  exit 1
fi
echo "PASS: canonical store sha256 $got"

echo "== assert: rendered tables match docs/results-quick.txt =="
if ! diff docs/results-quick.txt <(strip "$tmp/ref.out"); then
  echo "FAIL: QuickScale tables differ from docs/results-quick.txt"
  echo "      (see docs/sweep.md to regenerate)"
  exit 1
fi
echo "PASS: rendered tables match docs/results-quick.txt"

echo "== interrupted run =="
# The interrupt must land while the sweep is still running, or the
# resume leg is vacuous (everything cached, nothing proven). Retry
# with a shorter delay if the run beats the kill, and fail loudly if
# it always does.
delay="${RESUME_SMOKE_INTERRUPT_AFTER:-5}"
interrupted=0
for attempt in 1 2 3; do
  rm -f "$tmp/sweep.jsonl"
  "$tmp/pmpexperiments" -scale quick -store "$tmp/sweep.jsonl" \
    >"$tmp/int.out" 2>"$tmp/int.err" &
  pid=$!
  sleep "$delay"
  if kill -INT "$pid" 2>/dev/null; then
    status=0
    wait "$pid" || status=$?
    echo "interrupted run exited with status $status (attempt $attempt, after ${delay}s)"
    interrupted=1
    break
  fi
  wait "$pid" || true
  echo "attempt $attempt: run finished before the ${delay}s interrupt; retrying sooner"
  delay=$(awk -v d="$delay" 'BEGIN { print d / 2 }')
done
if [ "$interrupted" -ne 1 ]; then
  echo "FAIL: could not interrupt the sweep mid-run after 3 attempts;"
  echo "      the resume leg would be vacuous (set RESUME_SMOKE_INTERRUPT_AFTER lower)"
  exit 1
fi
touch "$tmp/sweep.jsonl"
cp "$tmp/sweep.jsonl" "$tmp/pre.jsonl"

echo "== resumed run =="
"$tmp/pmpexperiments" -scale quick -store "$tmp/sweep.jsonl" -resume \
  >"$tmp/res.out" 2>"$tmp/res.err"

echo "== assert: completed jobs were skipped =="
ok_ids() { grep '"status":"ok"' "$1" 2>/dev/null | grep -o '"id":"[^"]*"' | sort -u || true; }
ok_ids "$tmp/pre.jsonl" >"$tmp/pre_ids.txt"
pre_lines=$(wc -l <"$tmp/pre.jsonl")
tail -n +"$((pre_lines + 1))" "$tmp/sweep.jsonl" >"$tmp/appended.jsonl"
grep -o '"id":"[^"]*"' "$tmp/appended.jsonl" | sort -u >"$tmp/appended_ids.txt" || true
rerun=$(comm -12 "$tmp/pre_ids.txt" "$tmp/appended_ids.txt")
if [ -n "$rerun" ]; then
  echo "FAIL: jobs completed before the interrupt were re-recorded after -resume:"
  echo "$rerun"
  exit 1
fi
echo "PASS: $(wc -l <"$tmp/pre_ids.txt") completed jobs skipped," \
  "$(wc -l <"$tmp/appended_ids.txt") remaining jobs executed by the resume"

echo "== assert: resumed tables match the uninterrupted reference =="
if ! diff <(strip "$tmp/ref.out") <(strip "$tmp/res.out"); then
  echo "FAIL: resumed run's tables differ from the uninterrupted reference"
  exit 1
fi
echo "PASS: rendered tables byte-identical"

echo "== resume smoke OK =="
