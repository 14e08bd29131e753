#!/bin/sh
# Gate for the differential verification harness (`ccomp verify`):
# the fast sweep over every equivalence pair must come back clean, and
# the golden-corpus tripwire must actually trip — a corrupted artifact
# or input byte has to turn into a nonzero exit, or the corpus is not
# protecting the wire format at all. Machine-independent, so bin/dune
# wires it into `dune runtest`.
#
# usage: verify_check.sh [--full] CCOMP_EXE GOLDEN_DIR
#
# Default is the fast tier (one profile, small scale — the runtest
# budget); --full runs the whole default sweep (gcc+swim, both ISAs,
# scale 0.12), a slower pre-merge gate run by hand.
set -eu

tier=--fast
if [ "${1:-}" = --full ]; then tier=; shift; fi
[ $# -eq 2 ] || { echo "usage: verify_check.sh [--full] CCOMP_EXE GOLDEN_DIR" >&2; exit 2; }
case $1 in */*) ccomp=$1 ;; *) ccomp=./$1 ;; esac
golden=$2
[ -r "$golden/MANIFEST" ] || { echo "verify_check: no golden corpus at $golden" >&2; exit 2; }

dir=$(mktemp -d /tmp/verify_check.XXXXXX)
trap 'rm -rf "$dir"' EXIT
trap 'exit 130' INT
trap 'exit 143' TERM
trap 'exit 129' HUP

fail() { echo "verify_check: $*" >&2; exit 1; }

# -- 1: the sweep (all pairs, golden + fresh inputs) is clean -----------
# shellcheck disable=SC2086 # $tier is deliberately empty or one flag
"$ccomp" verify $tier --golden "$golden" --repro-dir "$dir" > "$dir/sweep.log" 2>&1 \
  || fail "sweep diverged: $(tail -n 5 "$dir/sweep.log")"
grep -q ', 0 divergences$' "$dir/sweep.log" \
  || fail "sweep did not report zero divergences: $(tail -n 1 "$dir/sweep.log")"

# -- 2: a corrupted artifact byte must fail the corpus check ------------
# (flip a byte past the header so the damage lands in the payload, not
# in the magic — the tripwire has to catch content drift, not just a
# torn file)
cp "$golden"/MANIFEST "$golden"/*.bin "$golden"/*.secf "$dir/"
art=$(ls "$dir"/*.secf | head -n 1)
dd if="$art" bs=1 skip=40 count=1 2>/dev/null | od -An -tu1 | tr -d ' ' > "$dir/byte"
printf '\\%03o' $((($(cat "$dir/byte") + 1) % 256)) | xargs printf \
  | dd of="$art" bs=1 seek=40 count=1 conv=notrunc 2>/dev/null
if "$ccomp" verify --golden-only --golden "$dir" > "$dir/corrupt.log" 2>&1; then
  fail "a corrupted golden artifact passed the corpus check"
fi

# -- 3: a corrupted input byte must fail its manifest CRC ---------------
rm -rf "$dir"/*.secf "$dir"/*.bin "$dir"/MANIFEST
cp "$golden"/MANIFEST "$golden"/*.bin "$golden"/*.secf "$dir/"
bin=$(ls "$dir"/*.bin | head -n 1)
dd if="$bin" bs=1 skip=10 count=1 2>/dev/null | od -An -tu1 | tr -d ' ' > "$dir/byte"
printf '\\%03o' $((($(cat "$dir/byte") + 1) % 256)) | xargs printf \
  | dd of="$bin" bs=1 seek=10 count=1 conv=notrunc 2>/dev/null
if "$ccomp" verify --golden-only --golden "$dir" > "$dir/corrupt2.log" 2>&1; then
  fail "a corrupted golden input passed the corpus check"
fi

echo "verify_check: OK (clean sweep, artifact tripwire, input tripwire)"
