#!/usr/bin/env bash
# Trace-file round-trip smoke test for the lazy windowed reader.
#
# Generates a trace with pmptrace, then
#   1. `pmptrace info -verify` streams it through the lazy FileSource
#      and the buffered Read decoder and compares every record (the
#      two share only the header parser, so agreement certifies both
#      record paths), and
#   2. pmpsim consumes the same file via -file end to end, proving the
#      simulator's streaming path accepts what the writer produced.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "== build =="
go build -o "$tmp/pmptrace" ./cmd/pmptrace
go build -o "$tmp/pmpsim" ./cmd/pmpsim

echo "== generate =="
"$tmp/pmptrace" -gen spec06.mcf-26 -records 50000 -o "$tmp/smoke.pmpt"

echo "== info -verify (lazy vs buffered reader) =="
"$tmp/pmptrace" info -verify "$tmp/smoke.pmpt" | tee "$tmp/info.out"
grep -q "verify         OK" "$tmp/info.out" ||
  { echo "trace_smoke: verify line missing from info output" >&2; exit 1; }

echo "== pmpsim consumes the file =="
"$tmp/pmpsim" -pf pmp -file "$tmp/smoke.pmpt" -warmup 10000 >"$tmp/sim.out"
grep -q "prefetcher  pmp" "$tmp/sim.out" ||
  { echo "trace_smoke: pmpsim produced no result" >&2; cat "$tmp/sim.out" >&2; exit 1; }

echo "trace_smoke: OK"
