#!/usr/bin/env bash
# Command-line smoke checks for the tools' argument handling and the served
# topology. tests/CMakeLists.txt registers each check as a ctest test.
#
#   tests/cli_smoke.sh <check> <tool-binary>
#
# Checks:
#   chaos-args <chaos_recovery>
#       A flag where the scratch directory belongs (`--studies 100`) is
#       refused with exit 2 and the usage line naming <scratch-dir>.
#   serve <hypertune_cli>
#       A durable `--serve` on an ephemeral loopback port serves a
#       `--connect` fleet, and a restart on the same state dir recovers the
#       default study. A durable non-snapshot tuner (bohb) is refused with
#       exit 1 and the snapshot error; in memory it serves. A state dir
#       holding a single-study journal at its top level is refused.
set -euo pipefail

check=${1:?usage: cli_smoke.sh <check> <tool-binary>}
tool=${2:?usage: cli_smoke.sh <check> <tool-binary>}
scratch=$(mktemp -d)
server_pid=
cleanup() {
  if [[ -n "$server_pid" ]]; then kill "$server_pid" 2> /dev/null || true; fi
  rm -rf "$scratch"
}
trap cleanup EXIT

fail() {
  echo "cli_smoke $check: $*" >&2
  exit 1
}

# Starts `hypertune_cli --serve=0 ...` in the background and sets $port
# from its "serving ... at HOST:PORT" line (waits up to 10 s).
start_server() {
  local log=$1
  shift
  "$tool" --serve=0 "$@" > "$log" 2>&1 &
  server_pid=$!
  port=
  for _ in $(seq 100); do
    port=$(sed -n 's/^serving .* at 127\.0\.0\.1:\([0-9]*\)$/\1/p' "$log")
    [[ -n "$port" ]] && return 0
    kill -0 "$server_pid" 2> /dev/null || break
    sleep 0.1
  done
  cat "$log" >&2
  fail "no serving line in $log"
}

wait_server() {
  wait "$server_pid" || fail "server exited with $?"
  server_pid=
}

case "$check" in
  chaos-args)
    status=0
    "$tool" --studies 100 > "$scratch/out.txt" 2>&1 || status=$?
    [[ $status -eq 2 ]] || fail "exit status $status, want 2"
    grep -q '^usage: chaos_recovery <scratch-dir>' "$scratch/out.txt" ||
      fail "no usage line: $(cat "$scratch/out.txt")"
    ;;
  serve)
    state="$scratch/state"
    start_server "$scratch/first.txt" --state-dir="$state" \
      --serve-seconds=4 --tuner=asha --seed=3
    "$tool" --connect="127.0.0.1:$port" --connect-seconds=2 --workers=4 \
      --seed=3 > "$scratch/connect.txt" ||
      fail "connect failed: $(cat "$scratch/connect.txt")"
    grep -q '^workers=4 ' "$scratch/connect.txt" ||
      fail "no fleet summary: $(cat "$scratch/connect.txt")"
    wait_server
    grep -q '^study default active assigned=[1-9]' "$scratch/first.txt" ||
      fail "default study assigned nothing: $(cat "$scratch/first.txt")"

    start_server "$scratch/second.txt" --state-dir="$state" \
      --serve-seconds=1 --tuner=asha --seed=3
    wait_server
    grep -q '^recovered 1 studies from ' "$scratch/second.txt" ||
      fail "no recovery: $(cat "$scratch/second.txt")"

    status=0
    "$tool" --serve=0 --state-dir="$scratch/bohb" --serve-seconds=1 \
      --tuner=bohb > "$scratch/bohb.txt" 2>&1 || status=$?
    [[ $status -eq 1 ]] || fail "durable bohb exited $status, want 1"
    grep -q 'supports snapshots' "$scratch/bohb.txt" ||
      fail "no snapshot error: $(cat "$scratch/bohb.txt")"
    [[ -z "$(ls -A "$scratch/bohb/studies")" ]] ||
      fail "refused study left files behind"

    start_server "$scratch/memory.txt" --serve-seconds=1 --tuner=bohb
    wait_server

    mkdir "$scratch/old"
    touch "$scratch/old/wal-000001.log"
    status=0
    "$tool" --serve=0 --state-dir="$scratch/old" --serve-seconds=1 \
      > "$scratch/old.txt" 2>&1 || status=$?
    [[ $status -eq 1 ]] || fail "single-study state dir exited $status"
    grep -q 'wal-000001.log' "$scratch/old.txt" ||
      fail "refusal does not name the journal: $(cat "$scratch/old.txt")"
    ;;
  *)
    echo "cli_smoke.sh: unknown check '$check'" >&2
    exit 2
    ;;
esac
echo "cli smoke '$check' passed"
