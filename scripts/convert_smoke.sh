#!/usr/bin/env bash
# ChampSim conversion smoke test (docs/traces.md, "Real workloads").
#
# Proves the ingestion pipeline end to end on the committed golden
# fixture (internal/trace/champsim/testdata):
#   1. `pmptrace convert` on the raw and gzip'd fixture produces
#      byte-identical, deterministic `.pmpt` output (-verify streams
#      the result back through the lazy FileSource and the buffered
#      decoder and compares every record),
#   2. a QuickScale PMP sim over the converted file is deterministic:
#      two runs render byte-identical results,
#   3. an external-suite manifest (converted fixture + two generated
#      traces) drives the EXTW experiment through the local pool and
#      through a pmpsweepd coordinator + worker, and the two stores'
#      canonical dumps are byte-identical — the worker reconstructs
#      sources from the trace_file carried in the job spec, so it
#      needs no manifest of its own.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
addr="${CONVERT_SMOKE_ADDR:-127.0.0.1:7087}"
pids=()
cleanup() {
  status=$?
  for pid in "${pids[@]:-}"; do kill "$pid" 2>/dev/null || true; done
  wait 2>/dev/null || true
  rm -rf "$tmp"
  exit "$status"
}
trap cleanup EXIT

fixture=internal/trace/champsim/testdata/golden.champsim.trace

echo "== build =="
go build -o "$tmp/pmptrace" ./cmd/pmptrace
go build -o "$tmp/pmpsim" ./cmd/pmpsim
go build -o "$tmp/pmpexperiments" ./cmd/pmpexperiments
go build -o "$tmp/pmpsweepd" ./cmd/pmpsweepd

echo "== convert (raw and gzip fixture, -verify) =="
"$tmp/pmptrace" convert -verify -name golden -o "$tmp/golden.pmpt" \
  "$fixture" | tee "$tmp/convert.out"
grep -q "verify         OK" "$tmp/convert.out" ||
  { echo "convert_smoke: verify line missing from convert output" >&2; exit 1; }
"$tmp/pmptrace" convert -name golden -o "$tmp/golden-gz.pmpt" "$fixture.gz"
if ! cmp -s "$tmp/golden.pmpt" "$tmp/golden-gz.pmpt"; then
  echo "convert_smoke: raw and gzip conversions differ" >&2
  exit 1
fi
digest=$(sha256sum "$tmp/golden.pmpt" | cut -d' ' -f1)
echo "converted digest: $digest"

echo "== QuickScale sim over the converted fixture (x2, deterministic) =="
"$tmp/pmpsim" -pf pmp -file "$tmp/golden.pmpt" -warmup 0 >"$tmp/sim1.out"
"$tmp/pmpsim" -pf pmp -file "$tmp/golden.pmpt" -warmup 0 >"$tmp/sim2.out"
grep -q "prefetcher  pmp" "$tmp/sim1.out" ||
  { echo "convert_smoke: pmpsim produced no result" >&2; cat "$tmp/sim1.out" >&2; exit 1; }
if ! cmp -s "$tmp/sim1.out" "$tmp/sim2.out"; then
  echo "convert_smoke: sim output over the converted trace is not deterministic:" >&2
  diff "$tmp/sim1.out" "$tmp/sim2.out" >&2
  exit 1
fi
echo "sim digest: $(sha256sum "$tmp/sim1.out" | cut -d' ' -f1)"

echo "== manifest: converted fixture + two generated traces =="
"$tmp/pmptrace" -gen spec06.mcf-2 -records 60000 -o "$tmp/ext-a.pmpt"
"$tmp/pmptrace" -gen spec06.stride-1 -records 60000 -o "$tmp/ext-b.pmpt"
sum() { sha256sum "$1" | cut -d' ' -f1; }
cat >"$tmp/manifest.json" <<EOF
{
  "version": 1,
  "traces": [
    {"name": "golden", "family": "dpc3", "class": "medium",
     "path": "golden.pmpt", "sha256": "$(sum "$tmp/golden.pmpt")", "records": 100},
    {"name": "ext-a", "family": "spec06", "class": "high",
     "path": "ext-a.pmpt", "sha256": "$(sum "$tmp/ext-a.pmpt")"},
    {"name": "ext-b", "family": "spec06", "class": "medium",
     "path": "ext-b.pmpt", "sha256": "$(sum "$tmp/ext-b.pmpt")"}
  ]
}
EOF

echo "== EXTW serial (local pool) =="
"$tmp/pmpexperiments" -scale quick -exp EXTW -manifest "$tmp/manifest.json" \
  -store "$tmp/serial.jsonl" >"$tmp/serial.out" 2>"$tmp/serial.err"
grep -q "EXTW" "$tmp/serial.out" ||
  { echo "convert_smoke: EXTW table missing from serial output" >&2; exit 1; }

echo "== EXTW distributed (coordinator + worker, trace_file on the wire) =="
"$tmp/pmpsweepd" -listen "$addr" -store "$tmp/merged.jsonl" \
  >"$tmp/coord.log" 2>&1 &
pids+=("$!")
coord_pid=$!
for _ in $(seq 1 50); do
  if curl -sf -X POST -d '{}' "http://$addr/status" >/dev/null 2>&1; then break; fi
  sleep 0.1
done
# The worker has no manifest: jobs resolve via trace_file alone.
"$tmp/pmpsweepd" -worker -connect "$addr" -name convert-smoke \
  >"$tmp/worker.log" 2>&1 &
pids+=("$!")
"$tmp/pmpexperiments" -scale quick -exp EXTW -manifest "$tmp/manifest.json" \
  -remote "$addr" >"$tmp/remote.out" 2>"$tmp/remote.err"
kill -TERM "$coord_pid" 2>/dev/null || true
wait "$coord_pid" 2>/dev/null || true

echo "== assert: canonical stores byte-identical (serial vs distributed) =="
"$tmp/pmpsweepd" -canon "$tmp/serial.jsonl" >"$tmp/serial.canon"
"$tmp/pmpsweepd" -canon "$tmp/merged.jsonl" >"$tmp/merged.canon"
if ! cmp -s "$tmp/serial.canon" "$tmp/merged.canon"; then
  echo "convert_smoke: canonical stores differ (serial vs distributed):" >&2
  diff "$tmp/serial.canon" "$tmp/merged.canon" | head -20 >&2
  exit 1
fi
echo "PASS: $(wc -l <"$tmp/merged.canon") records byte-identical to the serial run"

echo "== assert: rendered EXTW tables match =="
strip() { grep -v -E '^-- .* completed in |^total elapsed: |^remote: ' "$1"; }
if ! diff <(strip "$tmp/serial.out") <(strip "$tmp/remote.out"); then
  echo "convert_smoke: remote EXTW table differs from serial" >&2
  exit 1
fi

echo "== convert smoke OK =="
