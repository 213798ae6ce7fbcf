#!/bin/sh
# Runs a command and passes only when it exits with the expected code and
# its combined stdout/stderr contains the expected text.
#
# Usage: tests/cli_expect.sh <exit-code> <text> <command> [args...]
want_rc=$1
want_text=$2
shift 2
out=$("$@" 2>&1)
rc=$?
printf '%s\n' "$out"
if [ "$rc" -ne "$want_rc" ]; then
  echo "cli_expect: exit code $rc, want $want_rc"
  exit 1
fi
case $out in
  *"$want_text"*) ;;
  *) echo "cli_expect: output lacks '$want_text'"; exit 1 ;;
esac
