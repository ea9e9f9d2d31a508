#!/usr/bin/env sh
# Every proptest in the workspace at depth: 20 000 cases each, in release.
#
# Usage: ./deep.sh
#
# The pre-merge run for any change to a crate with a proptest. `ci.sh`
# runs seven of these properties at the same depth; this runs all of them,
# with every other test of the workspace: 702 tests in ≈4.5–6 min on 2 cores,
# release build from a cold target directory included. No test needs a
# smaller case count to fit in 8 min; the slowest binary is
# anycast-daemon's unit tests (≈2 min, the trace fuzz, wire and journal
# properties).
set -eu

PROPTEST_CASES=20000 cargo test --release --offline --workspace --no-fail-fast
