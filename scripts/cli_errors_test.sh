#!/usr/bin/env bash
# CLI error-handling audit (registered with CTest as cli_errors): every
# bad-input path of mpiguard / mpiguardd / mpiguard-client must exit
# nonzero with a diagnostic on stderr — usage errors exit 1, runtime
# failures (missing/corrupt files, dead sockets) exit 2 with a ONE-line
# message, and no bad input may ever produce exit 0 or an unhandled
# exception trace.
#
# usage: cli_errors_test.sh MPIGUARD MPIGUARDD MPIGUARD_CLIENT
set -u

MPIGUARD=${1:?path to mpiguard}
MPIGUARDD=${2:?path to mpiguardd}
CLIENT=${3:?path to mpiguard-client}

failures=0
checks=0

# expect <exit_code> <stderr_substring> -- <command...>
expect() {
  local want_code=$1 want_msg=$2
  shift 3  # drop code, substring, "--"
  local out code
  out=$("$@" 2>&1 >/dev/null)
  code=$?
  checks=$((checks + 1))
  if [ "$code" -ne "$want_code" ]; then
    echo "FAIL: [$*] exited $code, want $want_code" >&2
    failures=$((failures + 1))
    return
  fi
  if ! printf '%s' "$out" | grep -qF -- "$want_msg"; then
    echo "FAIL: [$*] stderr lacks '$want_msg'; got: $(printf '%s' "$out" | head -2)" >&2
    failures=$((failures + 1))
    return
  fi
  # An abort/uncaught-exception trace would name the exception type.
  if printf '%s' "$out" | grep -qE 'terminate called|Assertion|core dumped'; then
    echo "FAIL: [$*] crashed instead of erroring cleanly" >&2
    failures=$((failures + 1))
  fi
}

# expect_one_line <exit_code> <stderr_substring> -- <command...>
# Runtime failures must be a single diagnostic line, not a usage dump.
expect_one_line() {
  local want_code=$1 want_msg=$2
  shift 3
  local out code lines
  out=$("$@" 2>&1 >/dev/null)
  code=$?
  checks=$((checks + 1))
  lines=$(printf '%s\n' "$out" | grep -c .)
  if [ "$code" -ne "$want_code" ] || [ "$lines" -ne 1 ] ||
     ! printf '%s' "$out" | grep -qF -- "$want_msg"; then
    echo "FAIL: [$*] want exit $want_code + one line with '$want_msg';" \
         "got exit $code, $lines line(s): $(printf '%s' "$out" | head -2)" >&2
    failures=$((failures + 1))
  fi
}

# ---- mpiguard ---------------------------------------------------------------

expect 1 "missing subcommand"        -- "$MPIGUARD"
expect 1 "unknown subcommand"        -- "$MPIGUARD" frobnicate
expect 1 "unknown flag"              -- "$MPIGUARD" list --bogus
expect 1 "--detector is required"    -- "$MPIGUARD" train --dataset mbi:0.02 --out /tmp/x.mpib
expect 1 "--out is required"         -- "$MPIGUARD" train --detector ir2vec --dataset mbi:0.02
expect 1 "--dataset is required"     -- "$MPIGUARD" bench
expect 1 "unknown flag"              -- "$MPIGUARD" bench --dataset mbi:0.02 --json --batch 4
expect 1 "perf_gnn"                  -- "$MPIGUARD" bench --json --dataset mbi:0.02
expect 1 "unknown flag"              -- "$MPIGUARD" bench --dataset mbi:0.02 --json-out /tmp/x.json
expect 1 "--json is a fuzz option"   -- "$MPIGUARD" eval --detector itac --dataset mbi:0.02 --json
expect 1 "--json is a fuzz option"   -- "$MPIGUARD" list --json
expect 1 "--runs is a fuzz option"   -- "$MPIGUARD" list --runs 5 --no-shrink
expect 1 "--repro is a fuzz option"  -- "$MPIGUARD" eval --detector itac --dataset mbi:0.02 --repro x
expect 1 "--quick is a fuzz option"  -- "$MPIGUARD" corpus build --dataset mbi:0.02 --quick
expect 1 "requires a value"          -- "$MPIGUARD" eval --detector
expect 1 "unknown dataset"           -- "$MPIGUARD" eval --detector itac --dataset bogus
expect 1 "scale is not a number"     -- "$MPIGUARD" eval --detector itac --dataset mbi:abc
expect 1 "scale must be > 0"         -- "$MPIGUARD" eval --detector itac --dataset mbi:0
expect 1 "seed is not a non-negative integer" \
                                     -- "$MPIGUARD" eval --detector itac --dataset mbi:0.5@-3
expect 1 "not a non-negative integer" -- "$MPIGUARD" eval --detector itac --dataset mbi:0.02 --threads two
expect 1 "unknown protocol"          -- "$MPIGUARD" eval --detector itac --dataset mbi:0.02 --protocol sideways
expect 1 "exactly one of"            -- "$MPIGUARD" eval --dataset mbi:0.02
expect 1 "malformed --repro"         -- "$MPIGUARD" fuzz --repro garbage
expect_one_line 2 "cannot open"      -- "$MPIGUARD" predict --model /nonexistent.mpib --dataset mbi:0.02

# ---- mpiguardd --------------------------------------------------------------

expect 1 "--model is required"       -- "$MPIGUARDD"
expect 1 "--socket is required"      -- "$MPIGUARDD" --model /tmp/x.mpib
expect 1 "--queue must be >= 1"      -- "$MPIGUARDD" --model /tmp/x.mpib --socket /tmp/d.sock --queue 0
expect 1 "not a non-negative integer" -- "$MPIGUARDD" --model /tmp/x.mpib --socket /tmp/d.sock --queue many
expect 1 "--max-scale must be > 0"   -- "$MPIGUARDD" --model /tmp/x.mpib --socket /tmp/d.sock --max-scale 0
expect 1 "unknown flag"              -- "$MPIGUARDD" --model /tmp/x.mpib --socket /tmp/d.sock --verbose
expect 1 "requires a value"          -- "$MPIGUARDD" --model
expect_one_line 2 "mpiguardd"        -- "$MPIGUARDD" --model /nonexistent.mpib --socket /tmp/cli_errors_d.sock

# ---- mpiguard-client --------------------------------------------------------

expect 1 "--socket is required"      -- "$CLIENT"
expect 1 "nothing to do"             -- "$CLIENT" --socket /tmp/d.sock
expect 1 "--index requires --dataset" -- "$CLIENT" --socket /tmp/d.sock --index 3
expect 1 "not a non-negative integer" -- "$CLIENT" --socket /tmp/d.sock --dataset mbi --count many
expect 1 "unknown flag"              -- "$CLIENT" --socket /tmp/d.sock --stats --loud
expect_one_line 2 "connect"          -- "$CLIENT" --socket /nonexistent/nowhere.sock --stats

echo "cli_errors: $((checks - failures))/$checks checks passed"
[ "$failures" -eq 0 ]
