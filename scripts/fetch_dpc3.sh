#!/usr/bin/env bash
# Download DPC-3 / ChampSim trace sets and convert them into an
# external-suite manifest (docs/traces.md, "Real workloads").
#
# For each trace URL this script downloads the compressed ChampSim
# trace (skipping files already present), converts it to `.pmpt` with
# `pmptrace convert`, and assembles `traces.json` — a verified
# external-suite manifest that `pmpexperiments -manifest` consumes
# directly.
#
# Usage:
#
#   scripts/fetch_dpc3.sh [-o DIR] [-n LIMIT] [-s SKIP] [URL...]
#
#     -o DIR    output directory (default: traces/dpc3)
#     -n LIMIT  cap converted records per trace (0 = all; default 2000000)
#     -s SKIP   skip the first N load records per trace (default 0)
#     URL...    trace URLs; default: a representative DPC-3 subset
#
# Environment:
#
#   FETCH_DPC3_SKIP_DOWNLOAD=1   convert only what is already in DIR
#                                (no network; what CI uses)
#   FETCH_DPC3_BASE_URL          override the mirror base for the
#                                default subset
#
# The network step needs nothing but curl; the convert step needs the
# host `xz` for .xz traces (gzip is handled natively).
set -euo pipefail
cd "$(dirname "$0")/.."

outdir="traces/dpc3"
limit=2000000
skip=0
while getopts "o:n:s:" opt; do
  case "$opt" in
    o) outdir=$OPTARG ;;
    n) limit=$OPTARG ;;
    s) skip=$OPTARG ;;
    *) exit 2 ;;
  esac
done
shift $((OPTIND - 1))

# The default subset mirrors the paper's workload spread: memory-bound
# SPEC 2006/2017 traces from the DPC-3 distribution.
base="${FETCH_DPC3_BASE_URL:-https://dpc3.compas.cs.stonybrook.edu/champsim-traces/speccpu}"
default_urls=(
  "$base/410.bwaves-1963B.champsimtrace.xz"
  "$base/429.mcf-184B.champsimtrace.xz"
  "$base/433.milc-127B.champsimtrace.xz"
  "$base/437.leslie3d-134B.champsimtrace.xz"
  "$base/450.soplex-247B.champsimtrace.xz"
  "$base/462.libquantum-714B.champsimtrace.xz"
  "$base/470.lbm-1274B.champsimtrace.xz"
  "$base/471.omnetpp-188B.champsimtrace.xz"
)
urls=("${@:-}")
if [ "${#urls[@]}" -eq 0 ] || [ -z "${urls[0]}" ]; then
  urls=("${default_urls[@]}")
fi

mkdir -p "$outdir"
go build -o "$outdir/.pmptrace" ./cmd/pmptrace

if [ "${FETCH_DPC3_SKIP_DOWNLOAD:-0}" != "1" ]; then
  echo "== download (into $outdir) =="
  for url in "${urls[@]}"; do
    f="$outdir/$(basename "$url")"
    if [ -s "$f" ]; then
      echo "have $(basename "$f"), skipping download"
      continue
    fi
    echo "fetching $url"
    curl -fL --retry 3 -o "$f.part" "$url"
    mv "$f.part" "$f"
  done
else
  echo "== download skipped (FETCH_DPC3_SKIP_DOWNLOAD=1); converting $outdir contents =="
fi

shopt -s nullglob
inputs=("$outdir"/*.champsimtrace* "$outdir"/*.champsim.trace*)
inputs=($(printf '%s\n' "${inputs[@]}" | grep -v '\.pmpt$' | sort -u))
if [ "${#inputs[@]}" -eq 0 ]; then
  echo "fetch_dpc3: no ChampSim traces in $outdir to convert" >&2
  exit 1
fi

echo "== convert (${#inputs[@]} traces, skip $skip, limit $limit) =="
entries=""
for in_f in "${inputs[@]}"; do
  name=$(basename "$in_f")
  name=${name%%.champsimtrace*}
  name=${name%%.champsim.trace*}
  out_f="$outdir/$name.pmpt"
  if [ ! -s "$out_f" ]; then
    "$outdir/.pmptrace" convert -verify -name "$name" -skip "$skip" -limit "$limit" \
      -family dpc3 -o "$out_f" "$in_f"
  else
    echo "have $name.pmpt, skipping convert"
  fi
  sum=$(sha256sum "$out_f" | cut -d' ' -f1)
  records=$("$outdir/.pmptrace" info "$out_f" | awk '/^records/ {print $2; exit}')
  [ -n "$entries" ] && entries+=","
  entries+="
    {\"name\": \"$name\", \"family\": \"dpc3\", \"class\": \"medium\",
     \"path\": \"$name.pmpt\", \"sha256\": \"$sum\", \"records\": $records}"
done

manifest="$outdir/traces.json"
cat >"$manifest" <<EOF
{
  "version": 1,
  "traces": [$entries
  ]
}
EOF
rm -f "$outdir/.pmptrace"

echo "== manifest =="
echo "wrote $manifest ($(grep -c '"name"' "$manifest") traces)"
echo "run the external-workload table with:"
echo "  go run ./cmd/pmpexperiments -exp EXTW -manifest $manifest"
