#!/bin/sh
# End-to-end gate for the serve layer (lib/serve): boots a real daemon
# on an ephemeral port, pushes one job through each protocol, and
# checks the scrape surface. Machine-independent — structure and
# byte-identity only, never timing numbers — so bin/dune wires it into
# `dune runtest`.
#
# usage: serve_check.sh CCOMP_EXE
#
# Checks:
#   1. `ccomp serve --port 0 --workers 2` boots and reports its
#      bound port.
#   2. a served compress job (`ccomp submit`) is byte-identical to the
#      offline `ccomp compress` output, and a served decompress job
#      round-trips the image back to the original bytes; /metrics
#      counts exactly one job of each kind.
#   3. /metrics is OpenMetrics: # TYPE families, _total counters,
#      cumulative histogram buckets ending at le="+Inf", a final # EOF,
#      and the registry-wide schema (samc_/sadc_/memsys_/par_/serve_
#      families are all present, even the ones still at zero) — plus
#      the serve_info info metric (version, worker count and bound
#      port as labels),
#      the serve_uptime_seconds gauge, and the per-stage latency
#      histograms (serve_stage_{queue,read,work,write}_us).
#   4. /healthz answers ok; /events carries structured JSON lines for
#      the jobs just served, honours ?level= filtering, and rejects an
#      unknown level with a 400 naming it.
#   5. a 1-sender 1-connection keep-alive loadgen pays exactly one
#      connect for its whole run (reuse recorded in the bench json),
#      and the daemon's frames counter far exceeds its connections
#      counter afterwards.
#   6. `ccomp top --plain --frames 1` renders one frame from the live
#      daemon with its title and its counter, gauge, histogram,
#      stage-latency and recent-events panels, then exits 0; the
#      counter panel carries the serve layer's serve.frames row.
#   7. SIGTERM stops the daemon promptly and gracefully (exit 0: the
#      accept loop absorbs the break, closes the listener and flushes
#      telemetry before returning).
set -eu

[ $# -eq 1 ] || { echo "usage: serve_check.sh CCOMP_EXE" >&2; exit 2; }
case $1 in */*) ccomp=$1 ;; *) ccomp=./$1 ;; esac

dir=$(mktemp -d /tmp/serve_check.XXXXXX)
serve_pid=
# Runs on EVERY exit path — success, `fail`, set -e aborts and signals —
# and must never leave a daemon behind: TERM first, then a bounded wait,
# then KILL. The `|| :` guards keep set -e from cutting cleanup short,
# and the saved status makes sure cleanup itself never masks the
# script's verdict.
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

fail() { echo "serve_check: $*" >&2; exit 1; }

"$ccomp" generate --profile go --scale 0.15 --seed 17 -o "$dir/code.bin" >/dev/null

# -- 1: boot on an ephemeral port with two worker loops ------------------
# exists before the port poll reads it: the & redirection opens it late
: > "$dir/serve.log"
"$ccomp" serve --port 0 --workers 2 > "$dir/serve.log" 2>&1 &
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

# -- 2: served jobs are byte-identical to the offline CLI ---------------
"$ccomp" compress --algo samc "$dir/code.bin" -o "$dir/offline.secf" >/dev/null
"$ccomp" submit --port "$port" --op compress --algo samc \
  "$dir/code.bin" -o "$dir/served.secf" >/dev/null
cmp -s "$dir/offline.secf" "$dir/served.secf" \
  || fail "served compress is not byte-identical to offline compress"

"$ccomp" submit --port "$port" --op decompress "$dir/served.secf" -o "$dir/back.bin" >/dev/null
cmp -s "$dir/code.bin" "$dir/back.bin" || fail "served decompress did not round-trip"

# -- 3: /metrics is OpenMetrics with the full registry schema -----------
"$ccomp" scrape --port "$port" /metrics > "$dir/metrics.txt"
grep -q '^# TYPE [a-z_]* counter$' "$dir/metrics.txt" || fail "/metrics: no counter families"
grep -q '^# TYPE [a-z_]* histogram$' "$dir/metrics.txt" || fail "/metrics: no histogram families"
grep -q '_total [0-9]' "$dir/metrics.txt" || fail "/metrics: counters lack the _total suffix"
grep -q '_bucket{le="+Inf"}' "$dir/metrics.txt" || fail "/metrics: histograms lack a +Inf bucket"
tail -n 1 "$dir/metrics.txt" | grep -q '^# EOF$' || fail "/metrics: missing # EOF terminator"
for family in samc_ sadc_ memsys_ par_ serve_; do
  grep -q "^# TYPE $family" "$dir/metrics.txt" \
    || fail "/metrics: registry family $family missing from the schema"
done
grep -q '^serve_jobs_compress_total 1$' "$dir/metrics.txt" \
  || fail "/metrics: the served compress job was not counted"
grep -q '^serve_jobs_decompress_total 1$' "$dir/metrics.txt" \
  || fail "/metrics: the served decompress job was not counted"
# info metric: build/config facts as labels on a constant-1 sample
grep -q '^# TYPE serve info$' "$dir/metrics.txt" || fail "/metrics: no serve info family"
grep -q '^serve_info{.*version=".*".*} 1$' "$dir/metrics.txt" \
  || fail "/metrics: serve_info lacks a version label or constant-1 value"
grep -q '^serve_info{.*port="'"$port"'".*} 1$' "$dir/metrics.txt" \
  || fail "/metrics: serve_info does not carry the bound port"
grep -q '^serve_info{.*workers="2".*} 1$' "$dir/metrics.txt" \
  || fail "/metrics: serve_info does not carry the worker count"
# uptime gauge: non-negative and refreshed at scrape time
grep -q '^# TYPE serve_uptime_seconds gauge$' "$dir/metrics.txt" \
  || fail "/metrics: no serve_uptime_seconds gauge"
grep -q '^serve_uptime_seconds [0-9]' "$dir/metrics.txt" \
  || fail "/metrics: serve_uptime_seconds missing or negative"
# per-stage latency histograms stamped by the served jobs above
for stage in queue read work write; do
  grep -q "^# TYPE serve_stage_${stage}_us histogram$" "$dir/metrics.txt" \
    || fail "/metrics: no serve_stage_${stage}_us histogram"
done
grep -q '^serve_request_us_count [1-9]' "$dir/metrics.txt" \
  || fail "/metrics: served jobs did not land in serve_request_us"
# cumulative buckets must be monotone non-decreasing within each family
awk -F'[}] ' '
  /_bucket\{le=/ {
    split($0, a, "{"); name = a[1]
    if (name == prev && $2 + 0 < last + 0) { print "non-monotone bucket in " name; exit 1 }
    prev = name; last = $2
  }' "$dir/metrics.txt" || fail "/metrics: cumulative buckets decrease"

# -- 4: healthz + structured events -------------------------------------
"$ccomp" scrape --port "$port" /healthz | grep -q '^ok$' || fail "/healthz did not answer ok"
"$ccomp" scrape --port "$port" /events > "$dir/events.jsonl"
grep -q '"event":"serve.job.done"' "$dir/events.jsonl" \
  || fail "/events: no serve.job.done event for the jobs just served"
grep -q '"ts_us":' "$dir/events.jsonl" || fail "/events: events lack timestamps"
# ?level= filters the ring server-side; an unknown level is a 400
"$ccomp" scrape --port "$port" '/events?level=info&n=50' > "$dir/events_info.jsonl"
grep -q '"event":"serve.start"' "$dir/events_info.jsonl" \
  || fail "/events?level=info dropped the info-level serve.start event"
grep -q '"level":"debug"' "$dir/events_info.jsonl" \
  && fail "/events?level=info leaked debug-level events"
"$ccomp" scrape --port "$port" '/events?level=error&n=50' > "$dir/events_err.jsonl"
grep -qE '"level":"(debug|info)"' "$dir/events_err.jsonl" \
  && fail "/events?level=error leaked lower-level events"
if "$ccomp" scrape --port "$port" '/events?level=noise' > "$dir/events_bad.txt" 2>&1; then
  fail "/events?level=noise was not rejected"
fi
grep -q 'noise' "$dir/events_bad.txt" || fail "/events level rejection does not name the level"

# -- 5: keep-alive: one connection carries a whole loadgen run ----------
# (after the events checks: every frame books a serve.request debug
# event, so ~150 pings would push the job events out of the default
# /events view)
"$ccomp" loadgen --port "$port" --rate 150 --duration 1 --senders 1 --conns 1 \
  --mix-compress 0 --mix-decompress 0 --mix-ping 1 \
  --emit-json "$dir/keepalive.json" > "$dir/keepalive.log" 2>&1 \
  || fail "keep-alive loadgen failed: $(cat "$dir/keepalive.log")"
awk -F': ' '/"loadgen.connects"/ { found = 1; if ($2 + 0 != 1) exit 1 }
            END { if (!found) exit 1 }' "$dir/keepalive.json" \
  || fail "keep-alive: a 1-connection loadgen paid more than one connect"
awk -F': ' '/"loadgen.conn_reuse"/ { found = 1; if ($2 + 0 != 1) exit 1 }
            END { if (!found) exit 1 }' "$dir/keepalive.json" \
  || fail "keep-alive: conn_reuse not recorded in the bench json"
# daemon-side telemetry agrees: the ~150 ping frames all rode one
# connection, so frames must far exceed connections
"$ccomp" scrape --port "$port" /metrics > "$dir/metrics2.txt"
frames=$(awk '/^serve_frames_total /{print $2}' "$dir/metrics2.txt")
conns=$(awk '/^serve_connections_total /{print $2}' "$dir/metrics2.txt")
[ -n "$frames" ] || fail "/metrics: no serve_frames_total counter"
[ -n "$conns" ] || fail "/metrics: no serve_connections_total counter"
[ "$frames" -ge $((conns + 50)) ] \
  || fail "/metrics: frames ($frames) do not exceed connections ($conns) — keep-alive is not keeping connections alive"

# -- 6: one `ccomp top` frame renders every panel ------------------------
"$ccomp" top --port "$port" --plain --frames 1 > "$dir/top.txt" 2>&1 \
  || fail "ccomp top --plain --frames 1 failed: $(cat "$dir/top.txt")"
for panel in "ccomp top — 127.0.0.1:$port — frame 1" \
             'counter  *rate/s  *total' 'samc.compress.blocks ' 'serve.frames ' \
             'gauge  *value' 'serve.uptime_seconds ' \
             'histogram  *obs/s  *p50  *p95  *p99  *max' 'serve.stage.work_us ' \
             'request latency by stage' 'recent events:' '"event":"serve\.' \
             '\[q\] quit'; do
  grep -q "$panel" "$dir/top.txt" || fail "ccomp top frame lacks '$panel': $(cat "$dir/top.txt")"
done

# -- 7: clean shutdown on SIGTERM ---------------------------------------
kill -TERM "$serve_pid"
status=0
wait "$serve_pid" || status=$?
serve_pid=
[ "$status" -eq 0 ] || fail "daemon exit status $status on SIGTERM (want graceful 0)"

echo "serve_check: OK (boot, byte-identity, OpenMetrics scrape, events, top, clean shutdown)"
