#!/bin/sh
# End-to-end gate for the runtime-telemetry layer (lib/obs/runtime +
# lib/serve/slow): boots a real daemon with a zero slow-sampling
# threshold, pushes jobs through it, and checks that the GC/runtime
# counters are live on /metrics and that the tail-sampled slow-request
# ring is retrievable through both GET /slow and `ccomp stats --slow`.
# Machine-independent — presence and structure only, never timing
# numbers — so bin/dune wires it into `dune runtest`.
#
# usage: runtime_check.sh CCOMP_EXE
#
# Checks:
#   1. `ccomp serve --port 0 --slow-threshold-ms 0` boots.
#   2. after a batch of served jobs, /metrics carries the runtime_*
#      registry families (GC counters, heap gauges, the major-pause
#      histogram) with live nonzero values for the allocation counters
#      and heap gauge — the telemetry must measure, not just register.
#   3. GET /slow returns JSON lines with the full record shape:
#      per-stage GC deltas, stage split, queue depth at admission.
#   4. `ccomp stats --slow` renders the same records (correlation line
#      included) and `--json` passes the raw lines through.
#   5. SIGTERM still stops the daemon gracefully with sampling on.
set -eu

[ $# -eq 1 ] || { echo "usage: runtime_check.sh CCOMP_EXE" >&2; exit 2; }
case $1 in */*) ccomp=$1 ;; *) ccomp=./$1 ;; esac

dir=$(mktemp -d /tmp/runtime_check.XXXXXX)
serve_pid=
cleanup() {
  status=$?
  if [ -n "$serve_pid" ]; then
    kill "$serve_pid" 2>/dev/null || :
    i=0
    while kill -0 "$serve_pid" 2>/dev/null && [ "$i" -lt 20 ]; do
      sleep 0.1
      i=$((i + 1))
    done
    kill -KILL "$serve_pid" 2>/dev/null || :
    wait "$serve_pid" 2>/dev/null || :
  fi
  rm -rf "$dir"
  exit "$status"
}
trap cleanup EXIT
trap 'exit 130' INT
trap 'exit 143' TERM
trap 'exit 129' HUP

fail() { echo "runtime_check: $*" >&2; exit 1; }

"$ccomp" generate --profile go --scale 0.3 --seed 23 -o "$dir/code.bin" >/dev/null

# -- 1: boot with a zero sampling threshold (every request qualifies) ---
# exists before the port poll reads it: the & redirection opens it late
: > "$dir/serve.log"
"$ccomp" serve --port 0 --slow-threshold-ms 0 > "$dir/serve.log" 2>&1 &
serve_pid=$!

port=
i=0
while [ $i -lt 100 ]; do
  port=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9][0-9]*\).*/\1/p' "$dir/serve.log")
  [ -n "$port" ] && break
  kill -0 "$serve_pid" 2>/dev/null || fail "daemon died at startup: $(cat "$dir/serve.log")"
  sleep 0.1
  i=$((i + 1))
done
[ -n "$port" ] || fail "daemon never reported its port: $(cat "$dir/serve.log")"

# enough served work that the worker domains allocate through several
# minor heaps — the GC counters below must be genuinely nonzero
"$ccomp" compress --algo samc "$dir/code.bin" -o "$dir/ref.secf" >/dev/null
j=0
while [ $j -lt 4 ]; do
  "$ccomp" submit --port "$port" --op compress --algo samc \
    "$dir/code.bin" -o "$dir/served.secf" >/dev/null
  "$ccomp" submit --port "$port" --op decompress \
    "$dir/served.secf" -o "$dir/back.bin" >/dev/null
  j=$((j + 1))
done
cmp -s "$dir/code.bin" "$dir/back.bin" || fail "served round-trip broke under sampling"

# -- 2: runtime telemetry is live on /metrics ---------------------------
"$ccomp" scrape --port "$port" /metrics > "$dir/metrics.txt"
for family in runtime_gc_minor_collections runtime_gc_minor_words runtime_gc_major_cycles; do
  grep -q "^# TYPE $family counter$" "$dir/metrics.txt" \
    || fail "/metrics: no $family counter family"
done
for gauge in runtime_gc_heap_words runtime_gc_space_overhead runtime_domains; do
  grep -q "^# TYPE $gauge gauge$" "$dir/metrics.txt" \
    || fail "/metrics: no $gauge gauge family"
done
grep -q '^# TYPE runtime_gc_major_pause_us histogram$' "$dir/metrics.txt" \
  || fail "/metrics: no runtime_gc_major_pause_us histogram family"
# live values, not just schema: the served batch allocated for real
grep -q '^runtime_gc_minor_words_total [1-9]' "$dir/metrics.txt" \
  || fail "/metrics: runtime_gc_minor_words_total is zero after served jobs"
grep -q '^runtime_gc_minor_collections_total [1-9]' "$dir/metrics.txt" \
  || fail "/metrics: runtime_gc_minor_collections_total is zero after served jobs"
grep -q '^runtime_gc_heap_words [1-9]' "$dir/metrics.txt" \
  || fail "/metrics: runtime_gc_heap_words gauge is zero"
grep -q '^runtime_domains [1-9]' "$dir/metrics.txt" \
  || fail "/metrics: runtime_domains gauge is zero (no domain ever sampled)"

# -- 3: the slow ring serves full records on GET /slow ------------------
"$ccomp" scrape --port "$port" '/slow?n=16' > "$dir/slow.jsonl"
[ -s "$dir/slow.jsonl" ] || fail "/slow: empty with a zero threshold after served jobs"
grep -q '"kind":"compress"' "$dir/slow.jsonl" \
  || fail "/slow: no sampled compress request"
grep -q '"gc":{"read":{"minor":' "$dir/slow.jsonl" \
  || fail "/slow: records lack per-stage GC deltas"
grep -q '"queue_depth":' "$dir/slow.jsonl" \
  || fail "/slow: records lack the admission queue depth"
grep -q '"work_us":' "$dir/slow.jsonl" \
  || fail "/slow: records lack the stage split"

# -- 4: ccomp stats --slow renders the same ring ------------------------
"$ccomp" stats --slow --port "$port" -n 16 > "$dir/slow_table.txt" \
  || fail "stats --slow failed against the live daemon"
grep -q 'compress' "$dir/slow_table.txt" || fail "stats --slow: table lacks the sampled jobs"
grep -q 'overlapped a major collection' "$dir/slow_table.txt" \
  || fail "stats --slow: no GC-correlation line"
"$ccomp" stats --slow --json --port "$port" -n 16 > "$dir/slow_raw.jsonl" \
  || fail "stats --slow --json failed"
grep -q '"ts_us":' "$dir/slow_raw.jsonl" || fail "stats --slow --json: not raw JSON lines"

# -- 5: clean shutdown with sampling on ---------------------------------
kill -TERM "$serve_pid"
status=0
wait "$serve_pid" || status=$?
serve_pid=
[ "$status" -eq 0 ] || fail "daemon exit status $status on SIGTERM (want graceful 0)"

echo "runtime_check: OK (live GC counters, /slow ring, stats --slow, clean shutdown)"
