#!/usr/bin/env bash
# Durability drill for the campaign runtime (docs/campaign.md), run by the
# campaign-durability CI job and usable locally:
#
#   ci/campaign_kill_resume.sh [build-dir]
#
# For each payload's paper preset (ci/lib.sh, ci_kill_resume_drill):
# SIGKILL shard 0/2 mid-record-write via --abort-after-bytes, resume it,
# run shard 1/2 uninterrupted, merge, and require the report to match the
# preset's golden — and, when the monolithic bench binary is present, to
# be BYTE-IDENTICAL to its uninterrupted output.
set -euo pipefail
. "$(dirname "$0")/lib.sh"
ci_init "${1:-build}"

#                    preset              abort  golden                               bench
ci_kill_resume_drill coverage_comparison 2000 golden/coverage_comparison.json coverage_comparison
ci_kill_resume_drill pattern_coverage    200  golden/pattern_coverage.json    pattern_coverage
ci_kill_resume_drill characterization    400  golden/characterization.json    characterization

echo "PASS: kill -9 / resume / merge reproduced the golden report of every payload"
