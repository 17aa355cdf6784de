#!/usr/bin/env sh
# check_walls.sh — a test wall cannot silently lose a test.
#
# `make stress`, `make crash-recovery` and `make differential` select
# their tests with `go test -run 'A|B|C' PKG...`. A renamed or deleted
# test drops out of such a selection without any failure. This check
# reads each of those commands from `make -n`, lists the tests of its
# packages with `go test -list`, and fails when any alternative of its
# -run regex matches none of them.
#
# It also holds the Makefile's FUZZ_TARGETS to the fuzz functions that
# exist: every Fuzz function `go test -list` finds in the module must be
# listed, so `make fuzz` and `make fuzz-long` run it, and every listed
# package:Function must exist.
#
# Usage: scripts/check_walls.sh   (from the repo root; `make walls-check`)
set -eu

# One line per go test command: join the recipes' backslash-newlines.
cmds="$(make -n stress crash-recovery differential |
  sed -e ':a' -e '/\\$/{N;s/\\\n//;ba}' | grep -- "-run '" || true)"
if [ -z "$cmds" ]; then
  echo "check_walls: found no go test -run command in the walls"
  exit 1
fi

status=0
while IFS= read -r cmd; do
  regex="$(printf '%s\n' "$cmd" | sed "s/.*-run '\([^']*\)'.*/\1/")"
  pkgs="$(printf '%s\n' "$cmd" | tr -s ' \t' '\n\n' | grep '^\./' | tr '\n' ' ')"
  # shellcheck disable=SC2086 # pkgs is a space-separated package list
  names="$(go test -list . $pkgs | grep -E '^(Test|Fuzz|Example)' || true)"
  for alt in $(printf '%s\n' "$regex" | tr '|' ' '); do
    if ! printf '%s\n' "$names" | grep -qE -- "$alt"; then
      echo "check_walls: -run alternative '$alt' matches no test in $pkgs"
      status=1
    fi
  done
done <<EOF
$cmds
EOF

# FUZZ_TARGETS as the Makefile expands it, one package:Function a line.
listed="$(printf 'print-fuzz-targets:\n\t@echo $(FUZZ_TARGETS)\n' |
  make -s -f Makefile -f - print-fuzz-targets | tr -s ' ' '\n')"
# Every Fuzz function of the module, as ./package:Function ("." is the
# root package).
module="$(go list -m)"
found="$(go test -list '^Fuzz' ./... | awk -v mod="$module" '
  /^Fuzz/ { names[++n] = $1; next }
  /^ok/ {
    pkg = $2
    if (pkg == mod) pkg = "."; else pkg = "./" substr(pkg, length(mod) + 2)
    for (i = 1; i <= n; i++) print pkg ":" names[i]
    n = 0
  }')"
for t in $found; do
  if ! printf '%s\n' "$listed" | grep -qxF -- "$t"; then
    echo "check_walls: fuzz target $t is missing from FUZZ_TARGETS"
    status=1
  fi
done
for t in $listed; do
  if ! printf '%s\n' "$found" | grep -qxF -- "$t"; then
    echo "check_walls: FUZZ_TARGETS entry $t names no fuzz function"
    status=1
  fi
done

if [ "$status" -eq 0 ]; then
  echo "check_walls: every -run alternative matches a test, and FUZZ_TARGETS lists every fuzz function"
fi
exit "$status"
