#!/usr/bin/env sh
# Local CI gate: formatting, lints, and the full test suite.
#
# Usage: ./ci.sh
#
# Runs offline — all external dependencies are vendored under vendor/.
set -eu

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo doc (warnings are errors: a link to a deleted or private item fails here)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline -q \
    -p anycast -p anycast-analysis -p anycast-bench -p anycast-chaos -p anycast-cli \
    -p anycast-dac -p anycast-daemon -p anycast-estimator -p anycast-net \
    -p anycast-rsvp -p anycast-sim -p anycast-telemetry

echo "==> product line count"
# One fixed method, so size changes compare across commits: non-blank
# lines not starting with `//` in crates/*/src/**/*.rs, each file cut at
# its `#[cfg(test)] mod tests`.
find crates/*/src -name '*.rs' | sort | xargs awk '
    FNR == 1 { cut = 0; prev = "" }
    cut { next }
    /^[[:space:]]*mod tests[[:space:]]*\{/ && prev ~ /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { cut = 1; n--; next }
    { prev = $0 }
    /^[[:space:]]*$/ { next }
    /^[[:space:]]*\/\// { next }
    { n++ }
    END { print n " product lines" }'

echo "==> deleted code stays deleted (no serde derive, an empty anycast-estimator)"
# The vendored serde derives expand to nothing, so a derive only claims a
# serialisation that does not exist. The estimator's code is gone; its
# empty crate and the `serde` manifest lines stay until ROADMAP 8(e)
# removes them with one perfbench lock regeneration.
if grep -rnE 'Serialize|Deserialize' crates/*/src src tests; then
    echo "serde derives are no-ops: delete them" >&2
    exit 1
fi
if [ "$(find crates/estimator/src -type f)" != crates/estimator/src/lib.rs ]; then
    echo "crates/estimator/src must hold only lib.rs" >&2
    exit 1
fi

echo "==> cargo test"
cargo test --workspace --offline -q

echo "==> allocation budget (release; an allocation back on the DAC request path, in set-up or per journal token fails here)"
# Exact allocation counts of full MCI runs per system, plus a K = 16
# fat-tree run held to 0.01 allocations per request. Set-up is pinned on
# its own: `fat_tree(34)`'s build and `OnlineEngine::new` on the
# `offline_fattree` placement, so an allocation per node or per source
# cannot come back unnoticed. A session table churned 200 000 times keeps
# its capacity. The daemon's half: parse and render counts, and a journal
# at its bound over 120 000 tokens allocates nothing and holds ≤ 300 KiB.
cargo test --release --offline -q -p anycast-dac -p anycast-daemon --test alloc_budget

echo "==> queue, GDI-memo, session-table and journal references, deep (release, 20 000 cases each)"
# What bit-identity rests on: the event queue pops as a linear scan for
# the least (time, seq) does, an instant's bits order as `SimTime::cmp`
# does (-0.0 and subnormals included), and GDI's interned paths equal a
# per-pair residual search while capacities change. The session table
# and the journal's index hold what a std `HashMap` holds, with keys that
# share home slots and probe runs that wrap. The daemon's journal ring
# keeps, evicts and forgets as the map-and-FIFO journal it replaced, and
# a verdict read back from its `decision` line renders the same bytes.
# ≈3–4 s of tests.
PROPTEST_CASES=20000 cargo test --release --offline -q -p anycast-sim -p anycast-dac \
    -p anycast-rsvp -p anycast-daemon --lib -- \
    pops_exactly_as_a_linear_scan_reference partial_order_agrees_with_the_total_order \
    gdi_admits_on_the_reference_path_as_capacities_change \
    a_session_map_agrees_with_a_std_hash_map the_index_agrees_with_a_std_hash_map \
    the_ring_agrees_with_the_map_and_fifo_model a_verdict_read_from_its_line_renders_the_same_bytes

echo "==> paper figures (full profile, byte for byte against results/)"
# Tables 1–2, Figs. 3–7 and every ablation at the paper's horizons
# (≈65 s on 2 cores): an engine change that moves one printed digit
# fails here.
cargo build --release --offline -q -p anycast-bench --bin figures
figures_dir=$(mktemp -d)
./target/release/figures --out "$figures_dir" > /dev/null
diff -r "$figures_dir" results/
rm -rf "$figures_dir"

echo "==> perfbench lock file (a shifted dependency graph must fail here, not rewrite the benchmark's lock)"
cargo metadata --offline --locked --format-version 1 --manifest-path perfbench/Cargo.toml > /dev/null

echo "==> perfbench self-tests (the untouched benchmark must still compile against the product API)"
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> pinned engine digests (full-size offline workloads at seed 11; a one-bit behaviour change fails the run)"
# The smoke sizes above carry no pinned digest. Three full-size cycles
# each; `perf` exits non-zero unless the run's digest equals the one in
# perfbench/src/expected.json.
for workload in offline_mci offline_fattree; do
    cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 11 --seconds 1 --trace 0
done

echo "==> flash crowd (daemon_overload at seed 11; exit status is the gate)"
# ≈15 s. `perf` exits non-zero if any warm-up admit is refused, the
# accounting identity does not balance, or an admit gets no reply or two.
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload daemon_overload --seed 11 --seconds 10 --trace 0

echo "==> wire codec under load (daemon_saturation at seed 11; exit status is the gate)"
# `perf` exits non-zero unless every admit got exactly one well-formed
# reply carrying its token and the daemon counted zero wire errors:
# some 600 k lines through the hand-written codec in each direction.
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload daemon_saturation --seed 11 --seconds 3 --trace 0

echo "==> NaN gate (no bench artifact and no printed metric may be NaN or infinite)"
# Every derived metric stays finite even for empty measurement windows,
# zero-completion lossy runs and total-loss fault plans (EXPERIMENTS.md,
# "Reproducibility"); a saturated GDI run is the printed sample.
cargo run --release --offline -p anycast-cli --bin anycast -- \
    simulate --lambda 45 --system gdi --warmup 20 --measure 80 \
    > /tmp/gdi_metrics.txt
if grep -niE 'nan|inf' BENCH_pr*.json /tmp/gdi_metrics.txt; then
    echo "a bench artifact or a printed metric is NaN or infinite" >&2
    exit 1
fi
rm -f /tmp/gdi_metrics.txt

echo "==> two-phase leak smoke (lossy signalling must leak zero held bandwidth)"
# 5% loss on every signalling message kind plus real per-hop latency:
# timeouts, hold expiry and retransmission all fire, and the run must
# still end with every pending hold released. Non-zero holds, retransmits
# and lost messages prove the run went through the signalling engine, not
# the atomic exchange.
plan=$(mktemp)
cat > "$plan" <<'EOF'
[signaling]
path_loss_probability = 0.05
resv_loss_probability = 0.05
resv_err_loss_probability = 0.05
extra_delay_secs = 0.02
EOF
cargo run --release --offline -p anycast-cli --bin anycast -- \
    simulate --lambda 40 --r 2 --warmup 10 --measure 60 \
    --signaling-delay 0.02 --setup-timeout 0.5 --faults "$plan" \
    | tee /tmp/two_phase_smoke.txt
grep -q 'leaked holds          0 bps' /tmp/two_phase_smoke.txt
grep -Eq '^holds placed +[1-9][0-9]* ' /tmp/two_phase_smoke.txt
grep -Eq '^retransmits +[1-9]' /tmp/two_phase_smoke.txt
grep -Eq '^signaling msgs lost +[1-9]' /tmp/two_phase_smoke.txt
rm -f "$plan" /tmp/two_phase_smoke.txt

echo "==> soft-state leak smoke (lost teardowns must be reclaimed, leaking nothing)"
# One PATH_TEAR in five vanishes and the rest land after a delay while
# links fail and heal under them: orphans expire on their soft-state
# deadlines unless a link fault gets to them first, a fault can beat a
# delayed PATH_TEAR to its reservation, and either way every reserved bit
# is accounted for.
plan=$(mktemp)
cat > "$plan" <<'EOF'
[links]
mtbf_secs = 300.0
mttr_secs = 30.0

[control]
teardown_loss_probability = 0.2
teardown_delay_secs = 2.0
EOF
cargo run --release --offline -p anycast-cli --bin anycast -- \
    simulate --lambda 40 --r 2 --warmup 10 --measure 600 --faults "$plan" \
    | tee /tmp/soft_state_smoke.txt
grep -q 'leaked bandwidth      0 bps' /tmp/soft_state_smoke.txt
grep -Eq 'orphaned reservations [0-9]+ \([1-9][0-9]* reclaimed\)' /tmp/soft_state_smoke.txt
rm -f "$plan" /tmp/soft_state_smoke.txt

echo "==> trace smoke (exported JSONL must parse and contain a rejection)"
trace_dir=$(mktemp -d)
cargo run --release --offline -p anycast-cli --bin anycast -- \
    trace saturated --lambda 50 --r 2 --warmup 10 --measure 60 \
    --out "$trace_dir" --check
grep -q '"kind":"rejection"' "$trace_dir"/trace_saturated_seed1.jsonl
rm -rf "$trace_dir"

echo "==> record/replay gate (virtual-time replay must reproduce simulate byte-for-byte)"
arrival_trace=$(mktemp)
cargo run --release --offline -p anycast-cli --bin anycast -- \
    record --lambda 25 --system wddh --warmup 20 --measure 60 --seed 9 \
    --out "$arrival_trace"
cargo run --release --offline -p anycast-cli --bin anycast -- \
    simulate --lambda 25 --system wddh --warmup 20 --measure 60 --seed 9 \
    > /tmp/offline_metrics.txt
# replay prints metrics on stdout in simulate's exact format; auxiliary
# lines go to stderr, so the two outputs must be byte-identical.
cargo run --release --offline -p anycast-cli --bin anycast -- \
    replay --trace "$arrival_trace" --lambda 25 --system wddh \
    --warmup 20 --measure 60 --seed 9 \
    > /tmp/replay_metrics.txt 2>/dev/null
diff /tmp/offline_metrics.txt /tmp/replay_metrics.txt
rm -f "$arrival_trace" /tmp/offline_metrics.txt /tmp/replay_metrics.txt

echo "==> daemon smoke (admit/stats/shutdown round-trip over a real TCP socket)"
cargo build --release --offline -p anycast-cli --bin anycast
daemon_log=$(mktemp)
./target/release/anycast serve --listen 127.0.0.1:0 --speed 50 --seed 3 \
    --warmup 0 --measure 86400 > "$daemon_log" &
daemon_pid=$!
for _ in $(seq 1 100); do
    grep -q 'listening on tcp' "$daemon_log" && break
    sleep 0.1
done
port=$(sed -n 's/.*listening on tcp 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$daemon_log")
daemon_client=$(mktemp)
cat > "$daemon_client" <<'EOF'
set -eu
port=$1
exec 3<>/dev/tcp/127.0.0.1/"$port"
printf '{"op":"admit","source":1,"group":0,"demand_bps":64000,"holding_secs":120}\n' >&3
read -r line <&3
echo "$line" | grep -q '"op":"decision"'
echo "$line" | grep -q '"admitted":true'
printf '{"op":"stats"}\n' >&3
read -r line <&3
echo "$line" | grep -q '"offered":1'
printf '{"op":"shutdown"}\n' >&3
read -r line <&3
echo "$line" | grep -q '"op":"shutting_down"'
EOF
bash "$daemon_client" "$port"
wait "$daemon_pid"
grep -Eq '^served +1 requests' "$daemon_log"
rm -f "$daemon_log" "$daemon_client"

echo "==> daemon horizon (a finite horizon ends an idle service by itself)"
# No client and no signal: the service must stop once the wall clock
# passes warm-up + measure, whether or not an engine event lands on it.
timeout 30 ./target/release/anycast serve --listen 127.0.0.1:0 --warmup 0 --measure 2 > /dev/null

echo "==> unroutable placement (a source cut off from the group is a CLI error, not a panic)"
# Routers 3 and 4 are an island: as default sources they cannot reach
# member 0, and the command must exit 2 naming the pair.
island=$(mktemp)
island_err=$(mktemp)
printf '0 1 100000000\n1 2 100000000\n3 4 100000000\n' > "$island"
status=0
./target/release/anycast simulate --lambda 3 --topology "$island" --group 0 \
    > /dev/null 2> "$island_err" || status=$?
[ "$status" -eq 2 ]
grep -q 'no route from' "$island_err"
rm -f "$island" "$island_err"

echo "==> daemon soak (thousands of faulted connections must leak nothing)"
# Drives the daemon with the chaos client fleet — vanishing peers,
# slow-loris writers, malformed frames, duplicate submits, resumes and
# withheld teardowns — then asserts zero leaked bandwidth, bounded
# queue/journal growth, and the shed/error accounting identity.
cargo test --release --offline -q -p anycast-daemon --test soak

echo "CI OK"
