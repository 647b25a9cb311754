#!/usr/bin/env bash
# Golden gates: checks one built tool against the goldens committed under
# tools/golden/. tools/CMakeLists.txt registers each gate as a ctest test
# with the label "golden", so `ctest` runs them with the unit tests and
# `ctest -L golden` runs only them.
#
#   tools/golden_gate.sh <gate> <tool-binary> [args...]
#
# Gates:
#   transport <decision_dump>
#       The asha 42 8 dump is byte-identical over the in-process transport,
#       binary frames over loopback TCP, and JSON lines over loopback TCP.
#   study-smoke <study_smoke>
#       The admin-vocabulary transcript matches tools/golden/study_smoke.txt.
#   sweep <sweep_run> <threads>
#       The 80-cell grid over the committed tables emits
#       tools/golden/sweep_report.json byte for byte at that thread count.
#   tables <table_pack>
#       --verify accepts both committed tables and refuses a copy of one
#       with a byte flipped.
#   chaos <chaos_recovery> [flags...]
#       The crash-recovery harness passes in a fresh scratch directory.
set -euo pipefail

gate=${1:?usage: golden_gate.sh <gate> <tool-binary> [args...]}
tool=${2:?usage: golden_gate.sh <gate> <tool-binary> [args...]}
shift 2
golden="$(cd "$(dirname "$0")" && pwd)/golden"
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT

case "$gate" in
  transport)
    "$tool" asha 42 8 --transport inproc > "$scratch/inproc.txt"
    "$tool" asha 42 8 --transport binary-tcp > "$scratch/binary.txt"
    "$tool" asha 42 8 --transport json-tcp > "$scratch/json.txt"
    diff "$scratch/inproc.txt" "$scratch/binary.txt"
    diff "$scratch/inproc.txt" "$scratch/json.txt"
    ;;
  study-smoke)
    "$tool" > "$scratch/study_smoke.txt"
    diff "$golden/study_smoke.txt" "$scratch/study_smoke.txt"
    ;;
  sweep)
    threads=${1:?sweep needs a thread count}
    "$tool" --threads "$threads" \
      --table cifar_convnet="$golden/tables/cifar_convnet.httb" \
      --table ptb_lstm="$golden/tables/ptb_lstm.httb" \
      --json "$scratch/report.json" --text /dev/null
    diff "$golden/sweep_report.json" "$scratch/report.json"
    ;;
  tables)
    "$tool" --verify "$golden/tables/cifar_convnet.httb"
    "$tool" --verify "$golden/tables/ptb_lstm.httb"
    cp "$golden/tables/cifar_convnet.httb" "$scratch/corrupt.httb"
    printf '\x01' | dd of="$scratch/corrupt.httb" bs=1 seek=4096 count=1 \
      conv=notrunc 2> /dev/null
    if "$tool" --verify "$scratch/corrupt.httb"; then
      echo "verify accepted a corrupted table" >&2
      exit 1
    fi
    ;;
  chaos)
    "$tool" "$scratch" "$@"
    ;;
  *)
    echo "golden_gate.sh: unknown gate '$gate'" >&2
    exit 2
    ;;
esac
echo "golden gate '$gate' passed"
