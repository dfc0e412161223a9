#!/bin/sh
# The CLI's printing path, end to end: whatever `gbc run` prints must
# read back as a program that prints the same text.
#
# Usage: print_smoke.sh GBC PROGRAM_DIR
#
# For every non-adversarial PROGRAM_DIR/*.dl and both engines, the
# model's facts are fed back through `gbc run`.  Relations whose names
# hold a `$` (the choice rewrite's chosen$i/witness$i) are internal,
# not source syntax, so they are left out of what is fed back.  A fact
# base of the printer's edge cases (min_int, max_int, +-2^61, escaped
# and non-ASCII strings, nullary facts, tuples, compound terms),
# written in canonical form, must print as itself; and an integer
# literal wider than an OCaml int must be a lexical error, exit code 2.
set -eu

gbc=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
dir=$(cd "$2" && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

fail() {
  echo "print-smoke: $*" >&2
  exit 1
}

for prog in "$dir"/*.dl; do
  case $(basename "$prog") in adversarial_*) continue ;; esac
  for engine in staged reference; do
    "$gbc" run --engine "$engine" "$prog" > first.out
    grep -v '\$' first.out > first.dl || true
    "$gbc" run --engine "$engine" first.dl > second.out
    cmp -s first.dl second.out || fail "$prog ($engine): printed model does not read back unchanged"
  done
done

cat > edge_cases.dl <<'END'
n(-4611686018427387904).
n(-2305843009213693953).
n(-2305843009213693952).
n(2305843009213693952).
n(4611686018427387903).
s("a\rb\bc\td\ne\\f\"g\000h\255").
s("caf\195\169").
t(()).
t((1, a, "x")).
t(f(g(-1), (b, c))).
unit().
END
for engine in staged reference; do
  "$gbc" run --engine "$engine" edge_cases.dl > edge_cases.out
  cmp -s edge_cases.dl edge_cases.out || fail "edge cases ($engine) do not print as themselves"
done

echo 'n(4611686018427387904).' > too_wide.dl
status=0
"$gbc" run too_wide.dl > /dev/null 2> too_wide.err || status=$?
[ "$status" -eq 2 ] || fail "out-of-range literal: exit $status, expected 2"
grep -q 'lexical error at line 1, column 3' too_wide.err \
  || fail "out-of-range literal: unexpected message: $(cat too_wide.err)"

echo "print-smoke: ok"
