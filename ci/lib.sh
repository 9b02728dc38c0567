# Shared helpers for the CI durability drills (ci/campaign_kill_resume.sh,
# ci/service_kill_resume.sh).
# Source from a drill after `set -euo pipefail`:
#
#   . "$(dirname "$0")/lib.sh"
#   ci_init "${1:-build}"
#
# ci_init resolves the tool paths, creates a scratch directory in WORK,
# and installs a cleanup trap. Not executable on its own.

ci_init() {
  BUILD=${1:-build}
  RUN="$BUILD/tools/campaign_run"
  MERGE="$BUILD/tools/campaign_merge"
  CHECK="$BUILD/tools/golden_check"
  SCHEDULER="$BUILD/tools/campaign_scheduler"
  WORKER="$BUILD/tools/campaign_worker"
  WORK=$(mktemp -d)
  trap 'rm -rf "$WORK"' EXIT
}

# ci_expect_sigkill <cmd...> — run the command and require it to die from
# the crash-injection SIGKILL (exit 137); any other exit fails the drill.
ci_expect_sigkill() {
  set +e
  "$@"
  local rc=$?
  set -e
  if [ "$rc" -ne 137 ]; then
    echo "FAIL: expected kill -9 (exit 137) from: $* — got $rc" >&2
    exit 1
  fi
}

# ci_check_report <report.json> <golden.json> <bench-binary> — golden_check
# the merged report, then (when the monolithic bench binary is built)
# require the report to be byte-identical to its uninterrupted output.
ci_check_report() {
  local report=$1 golden=$2 bench=$3
  "$CHECK" "$report" "$golden"
  if [ -x "$bench" ]; then
    echo "== byte-identity against the uninterrupted monolithic bench =="
    "$bench" --json "$WORK/monolithic.json" > /dev/null
    cmp "$report" "$WORK/monolithic.json"
    echo "merged campaign report is byte-identical to the monolithic run"
  fi
}

# ci_kill_resume_drill <preset> <abort-bytes> <golden.json> <bench-name> —
# one payload's drill, in a scratch directory of its own: SIGKILL shard
# 0/2 mid-record-write, resume it, run shard 1/2 uninterrupted with a
# different (odd) thread count, merge both stores, and verify the report
# against the golden snapshot (and the bench binary, when present).
ci_kill_resume_drill() {
  local preset=$1 abort_bytes=$2 golden=$3 bench_name=$4
  local dir="$WORK/$preset"
  mkdir -p "$dir"

  echo "== $preset shard 0/2: forced kill -9 mid-write =="
  ci_expect_sigkill "$RUN" --store "$dir/s0.campaign" --preset "$preset" \
      --shard 0/2 --abort-after-bytes "$abort_bytes"
  echo "shard killed as expected (exit 137, store at $(stat -c%s "$dir/s0.campaign") bytes)"

  echo "== $preset shard 0/2: resume to completion =="
  "$RUN" --store "$dir/s0.campaign" --preset "$preset" --shard 0/2 --resume

  echo "== $preset shard 1/2: uninterrupted, 7 worker threads =="
  "$RUN" --store "$dir/s1.campaign" --preset "$preset" --shard 1/2 --threads 7

  echo "== $preset: merge and check against the golden snapshot =="
  "$MERGE" --coverage-report "$dir/report.json" \
           "$dir/s0.campaign" "$dir/s1.campaign"
  ci_check_report "$dir/report.json" "$golden" "$BUILD/bench/$bench_name"
}
