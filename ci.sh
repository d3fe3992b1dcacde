#!/usr/bin/env bash
# Offline CI: build, test, lint, and a smoke run of the reproduce binary.
set -euo pipefail
cd "$(dirname "$0")"

echo "== fmt"
cargo fmt --all --check

echo "== build"
cargo build --release --workspace

echo "== test"
cargo test -q --workspace

echo "== loadgen drain race"
# A multi-connection load generator that drains too early loses the
# requests still in flight on other connections. That race showed in
# about 7% of release runs of this test, so one pass cannot catch it:
# run it 50 times against the release test binary.
loadgen_test=$(cargo test --release -q -p pixel-serve --lib --no-run --message-format=json \
  | sed -n 's/.*"executable":"\([^"]*\)".*/\1/p')
for _ in $(seq 1 50); do
  "$loadgen_test" --exact loadgen::tests::multi_connection_load_is_fully_accounted -q > /dev/null \
    || { echo "multi-connection loadgen lost requests at drain" >&2; exit 1; }
done

echo "== mutants"
# Every record of mutants.txt is one literal source mutation and the test
# that must catch it. They run in one copy of the tree with its own
# target directory (a copied target/ can rebuild against stale
# fingerprints): the unmutated copy must pass every named test, then
# each mutant, applied alone, must build and must fail its test. The
# test column is a list of cargo arguments, split on purpose.
mutant_root=$(mktemp -d)
trap 'rm -rf "$mutant_root"' EXIT
git ls-files -z --cached --others --exclude-standard \
  | tar --null -T - -cf - | tar -xf - -C "$mutant_root"
mutant_cargo() {
  (cd "$mutant_root" && CARGO_TARGET_DIR="$mutant_root/target" \
    cargo test -q --offline "$@" < /dev/null)
}
mutants=()
while IFS= read -r line; do
  case $line in
    "file: "*) m_file=${line#file: } ;;
    "before: "*) m_before=${line#before: } ;;
    "after: "*) m_after=${line#after: } ;;
    "test: "*) mutants+=("$m_file"$'\t'"$m_before"$'\t'"$m_after"$'\t'"${line#test: }") ;;
  esac
done < mutants.txt
[ "${#mutants[@]}" -gt 0 ] || { echo "mutants.txt lists no mutants" >&2; exit 1; }
while IFS= read -r test; do
  baseline=$(mutant_cargo $test -- --exact 2>&1) \
    && grep -q "ok. 1 passed" <<< "$baseline" \
    || { echo "the unmutated tree fails or lacks $test" >&2; exit 1; }
done < <(printf '%s\n' "${mutants[@]}" | cut -f4 | sort -u)
for mutant in "${mutants[@]}"; do
  IFS=$'\t' read -r file before after test <<< "$mutant"
  path="$mutant_root/$file"
  original=$(cat "$path"; printf x)
  original=${original%x}
  rest=${original//"$before"/}
  [ $(( ${#original} - ${#rest} )) -eq "${#before}" ] \
    || { echo "mutant '$before' must match $file exactly once" >&2; exit 1; }
  printf '%s' "${original/"$before"/"$after"}" > "$path"
  mutant_cargo $test --no-run > /dev/null 2>&1 \
    || { echo "mutant '$after' in $file does not build" >&2; exit 1; }
  if mutant_cargo $test -- --exact > /dev/null 2>&1; then
    echo "mutant '$after' in $file survived $test" >&2
    exit 1
  fi
  printf '%s' "$original" > "$path"
  echo "caught: $file: $after"
done
rm -rf "$mutant_root"
trap - EXIT

echo "== lint"
# Deny mode: the checked-in baseline must stay empty and the tree clean,
# including under the stale-suppression check (X002) — and the analysis
# must be jobs-invariant.
./target/release/reproduce lint --deny --unused-suppressions
a=$(./target/release/reproduce lint --format json --jobs 1)
b=$(./target/release/reproduce lint --format json --jobs 4)
[ "$a" = "$b" ] || { echo "lint report differs across --jobs" >&2; exit 1; }

# Machine-readable lint report, archived as a build artifact.
./target/release/reproduce lint --format json > target/lint-report.json
grep -q '"version":1' target/lint-report.json \
  || { echo "lint-report.json malformed" >&2; exit 1; }

# Negative smoke: seed one violation of each rule family into a scratch
# file and assert the analyzer refuses it. The file is not referenced by
# any module tree, so cargo never compiles it; the trap guarantees
# cleanup even when an assertion fails.
smoke=crates/core/src/lint_smoke_tmp.rs
trap 'rm -f "$smoke"' EXIT
cat > "$smoke" <<'EOF'
pub fn smoke() {
    let _ = std::time::Instant::now();
    let design: Option<u32> = None;
    match design { _ => {} }
    let _ = design.unwrap();
}
pub fn smoke_energy(raw_energy: f64) -> f64 {
    raw_energy
}
pub fn smoke_metrics() {
    pixel_obs::add("Bad/Name", 1);
}
EOF
if ./target/release/reproduce lint --deny > /tmp/lint_smoke_out 2>&1; then
  echo "lint failed to flag the seeded violations" >&2
  exit 1
fi
for rule in D001 A001 P001 U001 O001; do
  grep -q "$rule" /tmp/lint_smoke_out || { echo "lint missed $rule" >&2; exit 1; }
done
rm -f "$smoke"
trap - EXIT

# Structural negative smoke: one violation per structural rule family —
# a leaf-crate dependency (G003), a library module no target reaches
# (G005: the seeded units file, unreachable by construction), a panic
# path from a bin entry (P101), an unsanctioned thread spawn (C001), and
# a bogus DESIGN.md catalogue entry (S001). Deny mode must flag every
# one. None of the scratch files is referenced by a module tree, and
# DESIGN.md is restored from the backup whichever way the step exits.
g_smoke=crates/units/src/lint_smoke_tmp.rs
p_smoke=crates/bench/src/bin/lint_smoke_tmp.rs
c_smoke=crates/core/src/lint_smoke_tmp.rs
cp DESIGN.md /tmp/design_md_backup
trap 'rm -f "$g_smoke" "$p_smoke" "$c_smoke"; if [ -f /tmp/design_md_backup ]; then mv /tmp/design_md_backup DESIGN.md; fi' EXIT
echo 'use pixel_obs::span;' > "$g_smoke"
cat > "$p_smoke" <<'EOF'
fn main() {
    let v: Option<u32> = None;
    let _ = v.unwrap();
}
EOF
cat > "$c_smoke" <<'EOF'
pub fn smoke() {
    std::thread::spawn(|| {});
}
EOF
echo 'And the catalogue also documents the imaginary rule S999.' >> DESIGN.md
if ./target/release/reproduce lint --deny > /tmp/lint_struct_smoke 2>&1; then
  echo "lint failed to flag the seeded structural violations" >&2
  exit 1
fi
for rule in G003 G005 P101 C001 S001; do
  grep -q "$rule" /tmp/lint_struct_smoke || { echo "lint missed $rule" >&2; exit 1; }
done
rm -f "$g_smoke" "$p_smoke" "$c_smoke"
mv /tmp/design_md_backup DESIGN.md
trap - EXIT

# Serving policy code must never read wall-clock time directly — the
# vetted clock adapter (crates/serve/src/clock.rs, D001-exempt) is the
# only sanctioned boundary. Seed an unvetted read into the policy tree
# and assert D001 refuses it.
smoke=crates/serve/src/policy_clock_smoke_tmp.rs
trap 'rm -f "$smoke"' EXIT
cat > "$smoke" <<'EOF'
pub fn sneaky_policy_deadline() -> std::time::Instant {
    std::time::Instant::now()
}
EOF
if ./target/release/reproduce lint --deny > /tmp/lint_serve_smoke 2>&1; then
  echo "lint failed to flag a wall-clock read in serve policy code" >&2
  exit 1
fi
grep -q "D001" /tmp/lint_serve_smoke \
  || { echo "lint missed D001 in serve policy code" >&2; exit 1; }
rm -f "$smoke"
trap - EXIT

echo "== clippy"
cargo clippy --all-targets --workspace -- -D warnings

echo "== doc"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "== reproduce smoke"
out=$(./target/release/reproduce table1 --profile)
echo "$out" | grep -q "== profile" || { echo "profile table missing" >&2; exit 1; }
echo "$out" | grep -q "dnn.analysis.layers" || { echo "expected counter missing" >&2; exit 1; }
./target/release/reproduce --list > /dev/null
# The paper's §III-A worked example asserts its partial sum (42) on the
# fabric of every design.
cargo run --release -q --example interconnect_broadcast > /dev/null
serve_out=$(./target/release/reproduce serve --jobs 2)
echo "$serve_out" | grep -q "saturation knee" || { echo "serve knee line missing" >&2; exit 1; }
if ./target/release/reproduce no-such-artifact 2> /dev/null; then
  echo "unknown artifact should fail" >&2
  exit 1
fi

echo "== flightrec smoke"
# The flight-recorder artifact with the machine-readable metrics stream:
# every emitted line must be flat JSON with a schema tag, validated line
# by line by the same parser the trace sink uses (checkjsonl exits
# non-zero on the first malformed line, failing the build).
# Captured, not piped: grep -q closing a pipe early would SIGPIPE the
# binary before the post-run --metrics write.
fr_out=$(./target/release/reproduce flightrec --quick --metrics /tmp/flightrec_metrics.jsonl)
echo "$fr_out" | grep -q "latency decomposition" || { echo "flightrec decomposition missing" >&2; exit 1; }
./target/release/reproduce checkjsonl /tmp/flightrec_metrics.jsonl
grep -q '"schema":"pixel.serve.event"' /tmp/flightrec_metrics.jsonl \
  || { echo "flightrec metrics missing event lines" >&2; exit 1; }
grep -q '"schema":"pixel.serve.window"' /tmp/flightrec_metrics.jsonl \
  || { echo "flightrec metrics missing window lines" >&2; exit 1; }
rm -f /tmp/flightrec_metrics.jsonl

echo "== pixel-served smoke"
# Start the live daemon on a free loopback port, run a short
# closed-loop burst through the load generator, and validate the
# emitted pixel.serve.* JSONL with the same checker as every other
# metrics artifact.
./target/release/pixel-served serve --rate 50 --requests 60 --seed 7 --scale 0.02 \
  --metrics /tmp/served_metrics.jsonl > /tmp/served_stdout.txt &
served_pid=$!
for _ in $(seq 1 50); do
  grep -q "listening on" /tmp/served_stdout.txt 2> /dev/null && break
  sleep 0.1
done
served_port=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' /tmp/served_stdout.txt)
if [ -z "$served_port" ]; then
  echo "pixel-served did not report a listening port" >&2
  kill "$served_pid" 2> /dev/null || true
  exit 1
fi
load_out=$(./target/release/pixel-served load --port "$served_port" \
  --rate 50 --requests 60 --seed 7)
echo "$load_out" | grep -q "daemon stats" \
  || { echo "loadgen missing the daemon stats frame" >&2; exit 1; }
wait "$served_pid"
./target/release/reproduce checkjsonl /tmp/served_metrics.jsonl
grep -q '"schema":"pixel.serve.stats"' /tmp/served_metrics.jsonl \
  || { echo "live metrics missing the stats line" >&2; exit 1; }
grep -q '"schema":"pixel.serve.window"' /tmp/served_metrics.jsonl \
  || { echo "live metrics missing window lines" >&2; exit 1; }
grep -q '"mode":"live"' /tmp/served_metrics.jsonl \
  || { echo "live metrics missing the live-mode tag" >&2; exit 1; }
rm -f /tmp/served_metrics.jsonl /tmp/served_stdout.txt

echo "== oracle"
# The live daemon must match the simulator's predicted saturation knee
# and queue-wait/service split within the tolerances documented in
# DESIGN.md section 12 (oracle exits non-zero on any breach).
oracle_out=$(./target/release/reproduce oracle --quick)
echo "$oracle_out" | grep -q "^oracle: PASS" \
  || { echo "oracle did not pass:"; echo "$oracle_out"; exit 1; } >&2

echo "== fleet"
# The sharded-fleet artifact: quick mode at two worker counts must be
# byte-identical (the router-determinism guarantee the snapshot pins),
# carry the batch-merge comparison line, and emit a schema-tagged
# metrics stream.
fleet_a=$(./target/release/reproduce fleet --quick --jobs 1 --metrics /tmp/fleet_metrics.jsonl)
fleet_b=$(./target/release/reproduce fleet --quick --jobs 2)
[ "$fleet_a" = "$fleet_b" ] || { echo "fleet artifact differs across --jobs" >&2; exit 1; }
echo "$fleet_a" | grep -q "merge@" || { echo "fleet merge line missing" >&2; exit 1; }
echo "$fleet_a" | grep -q "savings@" || { echo "fleet savings line missing" >&2; exit 1; }
./target/release/reproduce checkjsonl /tmp/fleet_metrics.jsonl
grep -q '"schema":"pixel.fleet.point"' /tmp/fleet_metrics.jsonl \
  || { echo "fleet metrics missing point lines" >&2; exit 1; }

echo "== bench"
# The perf harness runs in full mode so the fresh report is
# mode-matched with the committed baseline — `--compare` now hard-fails
# on a schema or mode disagreement (a mean-statistics or quick-mode
# baseline must never be silently compared against a median full run).
# Wall-time deltas stay advisory (machine-to-machine noise must not
# fail CI), but `--check` is a hard gate on the *in-run* invariants:
# the batched fabric_conv_{ee,oe,oo} benches must beat their _scalar
# references by the 6x floor, the fc_lenet_{ee,oe,oo} block-path FC
# benches must reach 4x the MAC/s of their functional_mac_* per-window
# engines, and every bench — including the forward_* CNN replays —
# must report finite nonzero throughput.
./target/release/reproduce bench --jobs 1 --out target/BENCH_functional.json
if [ -f BENCH_functional.json ]; then
  ./target/release/reproduce bench --compare BENCH_functional.json target/BENCH_functional.json
fi
./target/release/reproduce bench --check target/BENCH_functional.json

echo "== bench profile smoke"
# `reproduce bench --profile` prints the span table after the timings.
# The fabric's conv loop must show its kernel load and all four
# per-group stage spans under `fabric_conv2d/rows`; full paths are
# rebuilt from the table's two-space indentation, each printed with its
# self time in ns and its call count. The report goes to a scratch file,
# so the gated run above stays unprofiled.
prof_out=$(./target/release/reproduce bench --quick --profile --jobs 1 --out target/bench_profile.json)
span_self=$(echo "$prof_out" | awk -F'|' '
  /^span / { in_tree = 1; next }
  in_tree && NF < 2 { in_tree = 0 }
  in_tree {
    name = $1; sub(/ +$/, "", name)
    match(name, /^ */); depth = RLENGTH / 2
    part[depth] = substr(name, RLENGTH + 1)
    path = part[0]
    for (i = 1; i <= depth; i++) path = path "/" part[i]
    split($2, col, " ")
    scale = col[5] == "s" ? 1e9 : col[5] == "ms" ? 1e6 : col[5] == "us" ? 1e3 : 1
    printf "%s %.0f %s\n", path, col[4] * scale, col[1]
  }')
for stage in load gather pack transport fire; do
  echo "$span_self" | grep -q "^fabric_conv2d/rows/$stage " \
    || { echo "bench --profile missing span fabric_conv2d/rows/$stage" >&2; exit 1; }
done
# Packing is one transpose per chunk of positions; firing counts every
# synapse bit against every neuron plane. Packing outweighing firing
# within one run means the pack layer has regressed (a per-bit pack
# loop next to the count-then-resolve kernel lands above 1).
echo "$span_self" | awk '
  $1 == "fabric_conv2d/rows/pack" { pack = $2 }
  $1 == "fabric_conv2d/rows/fire" { fire = $2 }
  END {
    printf "rows/pack : rows/fire self time = %.2f\n", pack / fire
    if (pack > fire) { print "rows/pack self time exceeds rows/fire" > "/dev/stderr"; exit 1 }
  }'
# A forward pass loads each layer's kernels once, however many blocks
# fire past them: more `forward/Conv1/load` calls than `forward` calls
# means the lowering loads per block again.
echo "$span_self" | awk '
  $1 == "forward" { forwards = $3 }
  $1 == "forward/Conv1/load" { loads = $3 }
  END {
    if (loads == "") { print "bench --profile missing span forward/Conv1/load" > "/dev/stderr"; exit 1 }
    printf "forward/Conv1/load calls = %d, forward calls = %d\n", loads, forwards
    if (loads + 0 > forwards + 0) { print "forward/Conv1/load runs more than once per forward" > "/dev/stderr"; exit 1 }
  }'

echo "== benchmark"
# The repository benchmark is a package of its own, so no step above
# compiles it: test it here, so a library change that breaks an API it
# calls fails CI. Short runs of the workloads with in-run gates then
# enforce them: the bit-true fabric's outputs equal DirectMac and every
# window word is detected; `reference` holds DirectMac's blocked narrow
# kernel to the benchmark's own naive engine; `serve_low` checks the
# live daemon's accounting; `paper_sim` byte-compares its 12 artifacts
# with their snapshots and checks that the simulation repeats exactly;
# `serve_high` queues and batches requests in the daemon. The benchmark
# exits non-zero on any failed check.
bench_manifest=examples/benchmark/Cargo.toml
cargo test --release --offline --manifest-path "$bench_manifest"
# A shed or unanswered serving request counts as failed without a
# non-zero exit, so each workload's last line, its end-to-end JSON, must
# also read "failed":0.
for workload in reference fabric_ee fabric_oe fabric_oo serve_low serve_high paper_sim; do
  bench_out=$(cargo run --release --offline --manifest-path "$bench_manifest" -- \
    --workload "$workload" --seconds 1)
  bench_last=$(printf '%s\n' "$bench_out" | tail -n 1)
  case $bench_last in
    *'"failed":0,'*) ;;
    *) echo "benchmark $workload failed operations: $bench_last" >&2; exit 1 ;;
  esac
done

echo "== ok"
