#!/bin/sh
# Overload/chaos gate for the serve layer (ISSUE 6): boots a real
# daemon with deliberately small budgets, fires the seeded socket-level
# chaos mix at it, and checks that it degrades the way the design says
# it must. Machine-independent — every assertion is about structure
# (typed replies, counters, events, exit codes), never timing numbers.
#
# usage: chaos_check.sh CCOMP_EXE
#
# Checks:
#   1. daemon boots with tight budgets (queue-cap 2, io-timeout 1s,
#      idle-timeout 1s, drain 5s, recycle every 3 frames) and the
#      crash op enabled.
#   2. `ccomp chaos --seed 42` PASSes: the daemon stays live through
#      slowloris + truncation + churn + resets + oversize + an overload
#      flood + keep-alive abuse (pipelined bursts, torn frames
#      mid-stream, an inter-frame stall past the idle timeout); every
#      completed job is byte-identical to the offline oracle; the
#      flood produces typed Overloaded replies; deadline probes
#      produce typed Deadline_expired replies; pipelined replies arrive in order; the
#      stalled connection is idle-closed; every decompression bomb (a
#      CRC-valid image declaring 2^31 bytes, one per round) gets a typed
#      length-overflow refusal.
#   3. the overload telemetry is on /metrics afterwards: sheds,
#      expired deadlines and the crash-op worker restart all counted,
#      queue-depth gauges present, and the keep-alive counters moved —
#      recycles (forced by --max-requests-per-conn 3) and idle closes
#      (forced by the stall).
#   4. SIGTERM drains gracefully: exit 0 within the drain budget, and
#      the events file carries serve.drain.begin / serve.drain.end.
set -eu

[ $# -eq 1 ] || { echo "usage: chaos_check.sh CCOMP_EXE" >&2; exit 2; }
case $1 in */*) ccomp=$1 ;; *) ccomp=./$1 ;; esac

dir=$(mktemp -d /tmp/chaos_check.XXXXXX)
serve_pid=
cleanup() {
  status=$?
  if [ -n "$serve_pid" ]; then
    kill "$serve_pid" 2>/dev/null || :
    i=0
    while kill -0 "$serve_pid" 2>/dev/null && [ "$i" -lt 30 ]; do
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

fail() { echo "chaos_check: $*" >&2; exit 1; }

# -- 1: boot with tight budgets and the crash op enabled ----------------
# exists before the port poll reads it: the & redirection opens it late
: > "$dir/serve.log"
# --max-requests-per-conn 3 forces recycles under the keep-alive
# attacks; --idle-timeout 1 < the chaos --stall 2 forces idle closes
"$ccomp" serve --port 0 --workers 2 --queue-cap 2 \
  --idle-timeout 1 --io-timeout 1 --drain 5 --max-requests-per-conn 3 \
  --unsafe-crash-op \
  --events "$dir/events.jsonl" > "$dir/serve.log" 2>&1 &
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

# -- 2: the deterministic chaos mix must pass ---------------------------
# flood 12 > workers × queue-cap = 4 held connections, so typed sheds
# are forced; --crash-workers exercises supervision (the daemon has the op enabled)
"$ccomp" chaos --port "$port" --seed 42 --rounds 2 --flood 12 --stall 2 \
  --crash-workers --timeout 10 > "$dir/chaos.log" 2>&1 \
  || fail "chaos campaign FAILed: $(cat "$dir/chaos.log")"
grep -q 'chaos: PASS' "$dir/chaos.log" || fail "no PASS verdict: $(cat "$dir/chaos.log")"
grep -q 'seed 42' "$dir/chaos.log" || fail "replay seed not logged: $(cat "$dir/chaos.log")"
# the keep-alive battery actually ran: bursts got pipelined replies,
# stalls were idle-closed (both also gated inside `chaos` itself)
grep -Eq 'pipeline bursts +[1-9]' "$dir/chaos.log" \
  || fail "no pipeline bursts ran: $(cat "$dir/chaos.log")"
grep -Eq 'interframe stalls +[1-9]' "$dir/chaos.log" \
  || fail "no inter-frame stalls ran: $(cat "$dir/chaos.log")"
# one decompression bomb per round, each refused typed (also gated
# inside `chaos` itself)
bombs=$(sed -n 's/^ *decompress bombs *\([0-9][0-9]*\) .*/\1/p' "$dir/chaos.log")
refused=$(sed -n 's/^ *decompress bombs .*(\([0-9][0-9]*\) refused typed)$/\1/p' "$dir/chaos.log")
[ "${bombs:-0}" -ge 2 ] 2>/dev/null \
  || fail "want a decompression bomb per round (2), got '$bombs': $(cat "$dir/chaos.log")"
[ "$refused" = "$bombs" ] \
  || fail "$refused of $bombs decompression bombs refused typed: $(cat "$dir/chaos.log")"

# -- 3: overload telemetry on the scrape surface ------------------------
kill -0 "$serve_pid" 2>/dev/null || fail "daemon died during chaos: $(cat "$dir/serve.log")"
"$ccomp" scrape --port "$port" /healthz | grep -q '^ok$' \
  || fail "/healthz not ok after chaos"
"$ccomp" scrape --port "$port" /metrics > "$dir/metrics.txt"

metric() { sed -n "s/^$1 \([0-9][0-9.]*\)\$/\1/p" "$dir/metrics.txt"; }
nonzero() {
  v=$(metric "$1")
  [ -n "$v" ] || fail "/metrics: $1 missing"
  [ "${v%%.*}" -gt 0 ] 2>/dev/null || fail "/metrics: $1 is $v, want > 0"
}
nonzero serve_shed_total
nonzero serve_deadline_expired_total
nonzero serve_worker_restarts_total
# keep-alive telemetry: the 3-frame recycle bound and the 1s idle
# timeout were both hit by the chaos mix above
nonzero serve_frames_total
nonzero serve_conn_recycles_total
nonzero serve_keepalive_idle_closes_total
grep -q '^# TYPE serve_queue_depth_0 gauge$' "$dir/metrics.txt" \
  || fail "/metrics: queue-depth gauge missing"
grep -q '^# TYPE serve_inflight gauge$' "$dir/metrics.txt" \
  || fail "/metrics: inflight gauge missing"

# the shed/restart story must also be in the event log the daemon streams
"$ccomp" scrape --port "$port" /events > "$dir/events_live.jsonl"
grep -q '"event":"serve.shed"' "$dir/events_live.jsonl" \
  || fail "/events: no serve.shed events after a flood"
grep -q '"event":"serve.worker.restart"' "$dir/events_live.jsonl" \
  || fail "/events: no serve.worker.restart event after a crash op"

# -- 4: graceful drain within the budget --------------------------------
start_s=$(date +%s)
kill -TERM "$serve_pid"
status=0
wait "$serve_pid" || status=$?
serve_pid=
elapsed=$(( $(date +%s) - start_s ))
[ "$status" -eq 0 ] || fail "daemon exit status $status on SIGTERM (want graceful 0)"
# drain budget is 5s; allow slack for worker joins and a slow machine
[ "$elapsed" -le 15 ] || fail "drain took ${elapsed}s, budget is 5s"
grep -q '"event":"serve.drain.begin"' "$dir/events.jsonl" \
  || fail "events file: no serve.drain.begin on SIGTERM"
grep -q '"event":"serve.drain.end"' "$dir/events.jsonl" \
  || fail "events file: no serve.drain.end on SIGTERM"

echo "chaos_check: OK (liveness, typed sheds, byte-identity, worker respawn, clean drain in ${elapsed}s)"
