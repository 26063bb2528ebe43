#!/usr/bin/env bash
# End-to-end smoke test of the wm_tool CLI: generate -> train -> evaluate ->
# classify -> quantize -> quantized evaluate/classify -> render -> serve ->
# trace-merge on a throwaway dataset, a --model-watch reload, the integer
# flags' ranges, plus loadgen's.
#
#   wm_tool_smoke.sh WM_TOOL LOADGEN
set -euo pipefail

WM_TOOL="$1"
LOADGEN="$2"
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
export WM_LOG=warn

"$WM_TOOL" generate --out "$WORK/data" --per-class 6 --size 16 --seed 5 \
  | grep -q "wrote 54 wafers"

# WM_RUN_LOG opens the process-wide run log, so training leaves its epoch
# events there.
WM_RUN_LOG="$WORK/run.jsonl" "$WM_TOOL" train --data "$WORK/data" \
  --model "$WORK/m.wsn" --epochs 2 --size 16 --no-augment --seed 5 \
  | grep -q "model written"
grep -q '"event":"epoch"' "$WORK/run.jsonl"

"$WM_TOOL" evaluate --data "$WORK/data" --model "$WORK/m.wsn" \
  | grep -q "Overall: accuracy"

"$WM_TOOL" classify --model "$WORK/m.wsn" --wafer "$WORK/data/wafer_0.pgm" \
  | grep -Eq "ABSTAIN|g="

# Quantize the trained model; evaluate and classify must auto-detect the
# int8 format and agree with the fp32 path on this tiny set.
"$WM_TOOL" quantize --model "$WORK/m.wsn" --out "$WORK/m_int8.wsn" \
  | grep -q "int8 weights"

"$WM_TOOL" evaluate --data "$WORK/data" --model "$WORK/m_int8.wsn" \
  | grep -q "quantized model"

"$WM_TOOL" classify --model "$WORK/m_int8.wsn" \
  --wafer "$WORK/data/wafer_0.pgm" | grep -Eq "ABSTAIN|g="

"$WM_TOOL" render --wafer "$WORK/data/wafer_0.pgm" | grep -q "dies"

# One second of serving with the adaptation loop and an exporter attached,
# every port ephemeral.
"$WM_TOOL" serve --model "$WORK/m.wsn" --port 0 --http-port 0 --seconds 1 \
  --adapt > "$WORK/serve.txt"
grep -q "2 workers" "$WORK/serve.txt"
grep -q "adapt: state OBSERVE" "$WORK/serve.txt"

# While an int8 model serves, the adaptation loop can only re-fit the
# threshold.
"$WM_TOOL" serve --model "$WORK/m_int8.wsn" --port 0 --seconds 1 --adapt \
  > "$WORK/serve_int8.txt"
grep -q "threshold re-fit only" "$WORK/serve_int8.txt"
grep -q "adapt: state OBSERVE" "$WORK/serve_int8.txt"

# --model-watch reloads the served file when it changes. Replace it by a
# rename with the int8 artifact more than a second after it was written
# (the watch compares mtimes in whole seconds): the int8 model serves as
# version 2.
cp "$WORK/m.wsn" "$WORK/served.wsn"
"$WM_TOOL" serve --model "$WORK/served.wsn" --port 0 --model-watch 100 \
  --seconds 3 > "$WORK/watch.txt" &
watch_pid=$!
sleep 1.5
cp "$WORK/m_int8.wsn" "$WORK/served.tmp"
mv "$WORK/served.tmp" "$WORK/served.wsn"
wait "$watch_pid"
grep -q "hot-swapped $WORK/served.wsn \[int8\] -> version 2" "$WORK/watch.txt"

# trace-merge takes its input files as positional arguments.
"$WM_TOOL" render --wafer "$WORK/data/wafer_0.pgm" --trace "$WORK/t.json" \
  >/dev/null
"$WM_TOOL" trace-merge --out "$WORK/merged.json" "$WORK/t.json" \
  | grep -q "merged 1 trace file"

# An integer flag outside its range is refused before the command trains,
# evaluates or serves anything. The timeout ends a serve that accepted its
# flags and would run until a signal.
serve="serve --model $WORK/m.wsn --port 0 --seconds 1"
evaluate="evaluate --data $WORK/data --model $WORK/m.wsn"
for bad in "$serve --adapt --adapt-min-samples 0" \
  "$serve --adapt --adapt-epochs 0" "$serve --adapt --adapt-buffer 4" \
  "$serve --max-batch 5000" "$serve --queue-capacity 2000000" \
  "$serve --model-watch 5" "serve --model $WORK/m.wsn --port 0 --seconds -1" \
  "$evaluate --monitor-window -1" "$evaluate --refit-window -3" \
  "generate --out $WORK/bad --per-class -2"; do
  # shellcheck disable=SC2086  # $bad is a command and its flags
  err=$(timeout 60 "$WM_TOOL" $bad 2>&1 >/dev/null || true)
  if [[ $err != *"must be in ["* ]]; then
    echo "wm_tool did not refuse $bad: $err" >&2
    exit 1
  fi
done

# loadgen refuses a connection count outside its range instead of clamping
# it.
if "$LOADGEN" --connections 0 --requests 8 >/dev/null 2>&1; then
  echo "loadgen accepted --connections 0" >&2
  exit 1
fi

# Unknown command and missing flags must fail cleanly.
if "$WM_TOOL" bogus >/dev/null 2>&1; then exit 1; fi
# So must a positional argument to a command that takes none.
if "$WM_TOOL" render stray --wafer "$WORK/data/wafer_0.pgm" >/dev/null 2>&1
then
  exit 1
fi
# So must a numeric flag with trailing junk.
if "$WM_TOOL" generate --out "$WORK/junk" --per-class 2x >/dev/null 2>&1; then
  exit 1
fi
if "$WM_TOOL" classify --model "$WORK/m.wsn" >/dev/null 2>&1; then exit 1; fi
# Quantizing an already-quantized file must be rejected, not double-applied.
if "$WM_TOOL" quantize --model "$WORK/m_int8.wsn" --out "$WORK/m2.wsn" \
  >/dev/null 2>&1; then exit 1; fi

echo "wm_tool smoke OK"
