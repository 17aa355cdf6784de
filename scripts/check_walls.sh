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
if [ "$status" -eq 0 ]; then
  echo "check_walls: every -run alternative matches a test"
fi
exit "$status"
