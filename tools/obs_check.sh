#!/bin/sh
# Observability smoke gate over the ccomp CLI's --metrics/--trace
# outputs (lib/obs). Machine-independent — it checks structure and the
# byte-identity guarantee, never timing numbers — so bin/dune wires it
# into `dune runtest`.
#
# usage: obs_check.sh CCOMP_EXE
#
# Checks:
#   1. compress --metrics/--trace writes a ccomp-obs-v1 snapshot with the
#      per-stream bits_in/bits_out counters and a per-block latency
#      histogram carrying count/p50/p95/p99. The four streams' bits_in
#      (priced from the training counts) sum to exactly 8 x the input's
#      bytes, and the stream0 ratio gauge is present.
#   2. the trace file is a Chrome trace_event JSON array of "ph":"X"
#      slices (loadable in chrome://tracing / Perfetto).
#   3. instrumentation only observes: the .secf written with metrics and
#      tracing enabled is byte-identical to one written without.
#   4. decompress --metrics records the decode side and round-trips the
#      image back to the original bytes.
#   5. `ccomp stats` renders the snapshot and `ccomp stats --json`
#      re-emits it with the schema intact.
#   6. a truncated image is refused with exit 1 and a line naming the
#      error, not cmdliner's usage-error exit 124.
#   7. `ccomp ratios --isa x86` on code that is not a whole number of
#      4-byte words prints five ratios, each under 1; `--isa bogus` is a
#      command-line error (exit 124).
#   8. `compress` (either algorithm) and `ratios` with `--isa mips` on
#      that x86 code exit 1 with a `ccomp: cannot compress:` line, and so
#      do block sizes outside 1..65535 (the u16 header field).
#   9. a SADC compress and decompress record the same per-block metric
#      family as SAMC: sadc.{compress,decompress}.{blocks,bytes_in,
#      bytes_out,block_us}.
set -eu

[ $# -eq 1 ] || { echo "usage: obs_check.sh CCOMP_EXE" >&2; exit 2; }
case $1 in */*) ccomp=$1 ;; *) ccomp=./$1 ;; esac

dir=$(mktemp -d /tmp/obs_check.XXXXXX)
trap 'rm -rf "$dir"' EXIT

fail() { echo "obs_check: $*" >&2; exit 1; }

"$ccomp" generate --profile go --scale 0.15 --seed 11 -o "$dir/code.bin" >/dev/null

# -- 1+3: instrumented compress, byte-identical to the plain one --------
"$ccomp" compress --algo samc "$dir/code.bin" -o "$dir/plain.secf" >/dev/null
"$ccomp" compress --algo samc --metrics "$dir/m.json" --trace "$dir/t.json" \
  "$dir/code.bin" -o "$dir/obs.secf" >/dev/null
cmp -s "$dir/plain.secf" "$dir/obs.secf" \
  || fail "compress output changed when metrics+tracing were enabled"

[ -s "$dir/m.json" ] || fail "m.json missing or empty"
grep -q '"schema": "ccomp-obs-v1"' "$dir/m.json" || fail "m.json: missing ccomp-obs-v1 schema"
for key in samc.compress.blocks samc.stream0.bits_in samc.stream0.bits_out \
           samc.stream3.bits_in samc.stream3.bits_out; do
  grep -q "\"$key\":" "$dir/m.json" || fail "m.json: missing counter $key"
done
bits=0
for s in 0 1 2 3; do
  v=$(sed -n "s/.*\"samc.stream$s.bits_in\": *\([0-9]*\).*/\1/p" "$dir/m.json")
  [ -n "$v" ] || fail "m.json: samc.stream$s.bits_in is not a number"
  bits=$((bits + v))
done
size=$(wc -c < "$dir/code.bin")
[ "$bits" -eq $((8 * size)) ] \
  || fail "m.json: stream bits_in sum to $bits, want 8 x $size input bytes"
grep -q '"samc.stream0.ratio":' "$dir/m.json" || fail "m.json: missing gauge samc.stream0.ratio"
hist=$(grep '"samc.compress.block_us":' "$dir/m.json") \
  || fail "m.json: missing histogram samc.compress.block_us"
for field in count p50 p95 p99; do
  echo "$hist" | grep -q "\"$field\":" \
    || fail "m.json: samc.compress.block_us histogram lacks $field"
done

# -- 2: the trace is a Chrome trace_event array -------------------------
[ -s "$dir/t.json" ] || fail "t.json missing or empty"
head -c 1 "$dir/t.json" | grep -q '\[' || fail "t.json: not a JSON array"
tail -c 3 "$dir/t.json" | grep -q '\]' || fail "t.json: unterminated JSON array"
grep -q '"ph":"X"' "$dir/t.json" || fail "t.json: no complete ('ph':'X') trace slices"
for field in name cat ts dur pid tid; do
  grep -q "\"$field\":" "$dir/t.json" || fail "t.json: events lack the $field field"
done

# -- 4: decompress side -------------------------------------------------
"$ccomp" decompress --metrics "$dir/dm.json" "$dir/obs.secf" -o "$dir/code.out" >/dev/null
cmp -s "$dir/code.bin" "$dir/code.out" || fail "instrumented decompress did not round-trip"
grep -q '"samc.decompress.blocks":' "$dir/dm.json" \
  || fail "dm.json: missing counter samc.decompress.blocks"
grep -q '"samc.decompress.block_us":' "$dir/dm.json" \
  || fail "dm.json: missing histogram samc.decompress.block_us"

# -- 5: stats round-trip ------------------------------------------------
"$ccomp" stats "$dir/m.json" > "$dir/table.txt"
grep -q 'samc.stream0.bits_in' "$dir/table.txt" || fail "stats table lacks per-stream counters"
"$ccomp" stats --json "$dir/m.json" > "$dir/roundtrip.json"
grep -q '"schema": "ccomp-obs-v1"' "$dir/roundtrip.json" \
  || fail "stats --json lost the schema on round-trip"
grep -q '"samc.compress.block_us":' "$dir/roundtrip.json" \
  || fail "stats --json lost histograms on round-trip"

# -- 6: an unreadable image exits 1 and names the error ----------------
head -c 100 "$dir/obs.secf" > "$dir/truncated.secf"
status=0
"$ccomp" decompress "$dir/truncated.secf" -o "$dir/truncated.out" \
  > /dev/null 2> "$dir/truncated.err" || status=$?
[ "$status" -eq 1 ] || fail "truncated image: exit $status, want 1"
grep -q '^ccomp: cannot read image: ' "$dir/truncated.err" \
  || fail "truncated image: no 'cannot read image' line: $(cat "$dir/truncated.err")"

# -- 7: ratios on x86 code of any length --------------------------------
"$ccomp" generate --profile go --scale 0.15 --seed 11 --isa x86 -o "$dir/x86.bin" >/dev/null
len=$(wc -c < "$dir/x86.bin")
[ $((len % 4)) -ne 0 ] || fail "x86.bin: $len bytes is whole words; pick another seed"
"$ccomp" ratios --isa x86 "$dir/x86.bin" > "$dir/ratios.txt" \
  || fail "ratios --isa x86 exited nonzero: $(cat "$dir/ratios.txt")"
tail -n 1 "$dir/ratios.txt" | awk '
  NF != 6 { exit 1 }
  { for (i = 2; i <= 6; i++) if (!($i > 0 && $i < 1)) exit 1 }' \
  || fail "ratios: want five ratios in (0, 1), got: $(tail -n 1 "$dir/ratios.txt")"
status=0
"$ccomp" ratios --isa bogus "$dir/x86.bin" > /dev/null 2>&1 || status=$?
[ "$status" -eq 124 ] || fail "ratios --isa bogus: exit $status, want 124"

# -- 8: code that does not suit the ISA exits 1 and names the error -----
for cmd in "compress --algo samc -o $dir/unsuited.secf" "compress --algo sadc -o $dir/unsuited.secf" \
           "ratios"; do
  status=0
  # shellcheck disable=SC2086
  "$ccomp" $cmd --isa mips "$dir/x86.bin" > /dev/null 2> "$dir/unsuited.err" || status=$?
  [ "$status" -eq 1 ] || fail "$cmd --isa mips on x86 code: exit $status, want 1"
  grep -q '^ccomp: cannot compress: ' "$dir/unsuited.err" \
    || fail "$cmd --isa mips on x86 code: no 'cannot compress' line: $(cat "$dir/unsuited.err")"
done

for cmd in "compress --algo sadc --block-size 0 -o $dir/bad.secf" \
           "compress --algo sadc --block-size=-8 -o $dir/bad.secf" \
           "compress --algo sadc --block-size 65536 -o $dir/bad.secf" \
           "compress --algo samc --block-size 65536 -o $dir/bad.secf" \
           "ratios --block-size 0"; do
  status=0
  # shellcheck disable=SC2086
  "$ccomp" $cmd "$dir/code.bin" > /dev/null 2> "$dir/badsize.err" || status=$?
  [ "$status" -eq 1 ] || fail "$cmd: exit $status, want 1"
  grep -q '^ccomp: cannot compress: ' "$dir/badsize.err" \
    || fail "$cmd: no 'cannot compress' line: $(cat "$dir/badsize.err")"
done

# -- 9: the SADC per-block metric family --------------------------------
"$ccomp" compress --algo sadc --metrics "$dir/sadc-compress.json" "$dir/code.bin" \
  -o "$dir/sadc.secf" >/dev/null
"$ccomp" decompress --metrics "$dir/sadc-decompress.json" "$dir/sadc.secf" \
  -o "$dir/sadc.out" >/dev/null
cmp -s "$dir/code.bin" "$dir/sadc.out" || fail "instrumented SADC decompress did not round-trip"
for direction in compress decompress; do
  for key in blocks bytes_in bytes_out block_us; do
    grep -q "\"sadc.$direction.$key\":" "$dir/sadc-$direction.json" \
      || fail "sadc-$direction.json: missing sadc.$direction.$key"
  done
done

echo "obs_check: OK (metrics schema, trace shape, byte-identity, stats round-trip, unreadable image, ratios, unsuited code, block sizes, sadc metrics)"
