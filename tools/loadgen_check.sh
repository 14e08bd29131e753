#!/bin/sh
# End-to-end gate for `ccomp loadgen`: boots a real daemon on an
# ephemeral port, fires a short seeded open-loop run, and checks the
# report's structure. Machine-independent — schedule determinism, JSON
# shape and percentile ordering only, never absolute timing numbers —
# so bin/dune wires it into `dune runtest`.
#
# usage: loadgen_check.sh CCOMP_EXE
#
# Checks:
#   1. --print-schedule is deterministic in its seed (same seed, same
#      offsets; different seed, different offsets) without a daemon.
#   2. a run with generous SLOs against a live daemon passes (exit 0),
#      reports replies with server timing records, and --emit-json
#      writes a ccomp-bench-v1 file with every loadgen.* key.
#   3. reported percentiles are monotone: p50 <= p95 <= p99 <= p99.9.
#   4. an impossible p99 SLO makes the run exit non-zero.
set -eu

[ $# -eq 1 ] || { echo "usage: loadgen_check.sh CCOMP_EXE" >&2; exit 2; }
case $1 in */*) ccomp=$1 ;; *) ccomp=./$1 ;; esac

dir=$(mktemp -d /tmp/loadgen_check.XXXXXX)
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

fail() { echo "loadgen_check: $*" >&2; exit 1; }

# awk-based reader for the flat JSON --emit-json writes, one key per
# line: field 2 is the key, field 4 the value.
json_get() { awk -F'"' -v k="$2" '$2 == k { gsub(/[ :,]/, "", $3); print $3 $4 }' "$1"; }
json_has() { [ -n "$(json_get "$1" "$2")" ]; }

# -- 1: schedule determinism, no daemon needed --------------------------
"$ccomp" loadgen --seed 11 --rate 200 --duration 1 --print-schedule 20 > "$dir/sched_a.txt"
"$ccomp" loadgen --seed 11 --rate 200 --duration 1 --print-schedule 20 > "$dir/sched_b.txt"
cmp -s "$dir/sched_a.txt" "$dir/sched_b.txt" \
  || fail "same seed produced different arrival schedules"
"$ccomp" loadgen --seed 12 --rate 200 --duration 1 --print-schedule 20 > "$dir/sched_c.txt"
cmp -s "$dir/sched_a.txt" "$dir/sched_c.txt" \
  && fail "different seeds produced identical arrival schedules"
[ "$(wc -l < "$dir/sched_a.txt")" -eq 20 ] || fail "--print-schedule 20 did not print 20 offsets"

# -- boot a daemon on an ephemeral port ---------------------------------
# exists before the port poll reads it: the & redirection opens it late
: > "$dir/serve.log"
"$ccomp" serve --port 0 > "$dir/serve.log" 2>&1 &
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

# -- 2: generous-SLO run passes and emits a complete JSON section -------
"$ccomp" loadgen --port "$port" --seed 7 --rate 150 --duration 2 \
  --payload-bytes 1024 --slo-p99-ms 10000 --slo-shed-rate 0.5 --slo-deadline-rate 0.5 \
  --emit-json "$dir/loadgen.json" > "$dir/run.txt" \
  || fail "generous-SLO run failed: $(cat "$dir/run.txt")"
grep -q 'SLO' "$dir/run.txt" || fail "report never mentions the declared SLOs"

grep -q '"schema": "ccomp-bench-v1"' "$dir/loadgen.json" \
  || fail "--emit-json is not a ccomp-bench-v1 file"
for key in loadgen.offered_rps loadgen.achieved_rps loadgen.sent loadgen.ok \
           loadgen.shed loadgen.deadline_expired loadgen.timed \
           loadgen.p50_ms loadgen.p95_ms loadgen.p99_ms loadgen.p999_ms \
           loadgen.queue_p99_ms loadgen.service_p99_ms loadgen.network_p99_ms \
           loadgen.shed_rate loadgen.deadline_rate loadgen.slo_p99_ms \
           loadgen.slo_shed_rate loadgen.slo_deadline_rate loadgen.slo_violations \
           loadgen.conn_reuse loadgen.conns loadgen.connects loadgen.reconnects \
           loadgen.connect_p50_ms loadgen.connect_p99_ms loadgen.remainder_clamped; do
  json_has "$dir/loadgen.json" "$key" || fail "emitted JSON lacks $key"
done

# connection accounting: reuse defaults on, and a reusing run cannot
# pay more connects than requests (while --no-reuse pays one per
# request, modulo transport errors — checked via the reconnect-free
# lower bound below)
reuse=$(json_get "$dir/loadgen.json" loadgen.conn_reuse)
connects=$(json_get "$dir/loadgen.json" loadgen.connects)
conns=$(json_get "$dir/loadgen.json" loadgen.conns)
sent=$(json_get "$dir/loadgen.json" loadgen.sent)
awk "BEGIN { exit !($reuse == 1) }" || fail "conn_reuse should default to 1, got $reuse"
awk "BEGIN { exit !($connects >= $conns) }" \
  || fail "connects=$connects below the slot count conns=$conns"
awk "BEGIN { exit !($connects < $sent) }" \
  || fail "a reusing run paid connects=$connects for sent=$sent requests — reuse is not reusing"

ok=$(json_get "$dir/loadgen.json" loadgen.ok)
timed=$(json_get "$dir/loadgen.json" loadgen.timed)
awk "BEGIN { exit !($ok >= 1) }" || fail "no successful replies (ok=$ok)"
awk "BEGIN { exit !($timed >= 1) }" \
  || fail "no reply carried a server timing record (timed=$timed)"
awk "BEGIN { exit !($timed <= $ok) }" || fail "timed=$timed exceeds ok=$ok"

# -- 3: percentile monotonicity -----------------------------------------
p50=$(json_get "$dir/loadgen.json" loadgen.p50_ms)
p95=$(json_get "$dir/loadgen.json" loadgen.p95_ms)
p99=$(json_get "$dir/loadgen.json" loadgen.p99_ms)
p999=$(json_get "$dir/loadgen.json" loadgen.p999_ms)
awk "BEGIN { exit !($p50 <= $p95 && $p95 <= $p99 && $p99 <= $p999) }" \
  || fail "percentiles not monotone: p50=$p50 p95=$p95 p99=$p99 p99.9=$p999"

# -- 4: an impossible SLO must fail the run -----------------------------
status=0
"$ccomp" loadgen --port "$port" --seed 7 --rate 100 --duration 1 \
  --payload-bytes 1024 --slo-p99-ms 0.000001 > "$dir/violate.txt" 2>&1 || status=$?
[ "$status" -ne 0 ] || fail "impossible p99 SLO did not fail the run"
grep -qi 'SLO violated' "$dir/violate.txt" || fail "SLO failure does not name the violation"

echo "loadgen_check: OK (deterministic schedule, timing records, monotone percentiles, SLO gate)"
