#!/usr/bin/env bash
# Tier-1 verification: build, test, and a warnings-as-errors rustdoc
# pass over the whole workspace. CI and pre-merge both run this.
set -euo pipefail
cd "$(dirname "$0")/.."

# Build artifacts must never be committed.
if [ -n "$(git ls-files 'target/*')" ]; then
    echo "verify: target/ files are tracked in git; run 'git rm -r --cached target'" >&2
    exit 1
fi

cargo build --release
cargo test -q
cargo clippy --all-targets -- -D warnings

# Replay determinism: clippy enforces the contract through the lints the
# replay packages opt into (docs/DETERMINISM.md). Two of its rules have
# no clippy lint and are plain text searches: float ordering through
# `.partial_cmp(` in the grid and engine crates (DGA005; `float_cmp`
# covers `==`), and boxed trait objects on the step hot path (DGA006).
if grep -rn '\.partial_cmp(' crates/{core,dgms,fabric,journal,scheduler,simgrid,triggers}/src; then
    echo "verify: .partial_cmp( in replay code; order floats with total_cmp (DGA005)" >&2
    exit 1
fi
if grep -n 'Box<dyn' crates/core/src/engine.rs crates/core/src/run.rs; then
    echo "verify: Box<dyn on the step hot path; use an enum or an arena (DGA006)" >&2
    exit 1
fi
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# Documentation gates: the operator-facing crates must stay fully
# documented (missing_docs escalated to an error), and every relative
# markdown link in the guides and README must resolve.
for crate in dgf-journal dgf-obs dgf-dfms dgf-fabric; do
    RUSTDOCFLAGS="-D warnings" cargo rustdoc -q -p "$crate" -- -D missing_docs
done
link_errors=0
for doc in README.md docs/*.md; do
    dir=$(dirname "$doc")
    # Relative link targets only: strip optional #anchors, skip URLs.
    for target in $(grep -oE '\]\([^)#]+[^)]*\)' "$doc" \
        | sed -e 's/^](//' -e 's/)$//' -e 's/#.*$//' \
        | grep -vE '^(https?:|mailto:|$)' | sort -u); do
        if [ ! -e "$dir/$target" ]; then
            echo "verify: $doc links to missing file $target" >&2
            link_errors=1
        fi
    done
done
[ "$link_errors" -eq 0 ] || exit 1

# Layering gate: observability belongs to the engine (`dgf-dfms`) and
# the fabric, which own their `Obs` by value. The layers beneath them
# hand their results back instead of recording, so none of them may
# depend on `dgf-obs` (docs/DETERMINISM.md). Reads the lockfile only.
for crate in dgf-simgrid dgf-dgms dgf-journal dgf-scheduler dgf-triggers; do
    deps=$(cargo tree --offline --locked -e normal -p "$crate" --prefix none)
    if grep -q '^dgf-obs ' <<<"$deps"; then
        echo "verify: $crate depends on dgf-obs; lower layers hand observations back to the engine" >&2
        exit 1
    fi
done

# Console gate: the two examples that print MD5 digests, the
# federation, crash-recovery, attribution and time-travel consoles, the
# two ILM star builders (parallel and sequential for-each) and the two
# consoles that print metadata-query results in namespace order (SCEC
# derived products, trigger-curated objects) must print exactly the
# bytes pinned in tests/example_golden/ (dgf_why's wire-format report
# is compared below). There is no regeneration switch: a change to
# their output means editing the golden file by hand in the same commit.
for example in quickstart ucsd_md5_integrity dgf_fabric dgf_recover \
    bbsrc_imploding_star cms_exploding_star dgf_why dgf_time_travel \
    scec_ingest trigger_automation; do
    if ! cargo run -q --example "$example" | cmp -s - "tests/example_golden/$example.stdout"; then
        echo "verify: $example stdout differs from tests/example_golden/$example.stdout" >&2
        cargo run -q --example "$example" | diff - "tests/example_golden/$example.stdout" | head -20 >&2 || true
        exit 1
    fi
done

# Trace determinism: the observability suite must be stable across
# invocations, and two identically-seeded runs must export
# byte-identical Chrome trace JSON.
cargo test -q -p datagridflows --test observability
cargo test -q -p datagridflows --test observability
trace_a=$(mktemp) trace_b=$(mktemp)
scrape_a=$(mktemp) scrape_b=$(mktemp)
trap 'rm -f "$trace_a" "$trace_b" "$scrape_a" "$scrape_b"' EXIT
DGF_TRACE_OUT="$trace_a" cargo run -q --example observability >/dev/null
DGF_TRACE_OUT="$trace_b" cargo run -q --example observability >/dev/null
if ! cmp -s "$trace_a" "$trace_b"; then
    echo "verify: exported chrome traces differ between seeded reruns" >&2
    diff "$trace_a" "$trace_b" | head -20 >&2
    exit 1
fi

# Scrape determinism: two identically-seeded runs must render
# byte-identical telemetry scrapes (stable ordering, sim-time stamps).
DGF_SCRAPE_OUT="$scrape_a" cargo run -q --example observability >/dev/null
DGF_SCRAPE_OUT="$scrape_b" cargo run -q --example observability >/dev/null
if ! cmp -s "$scrape_a" "$scrape_b"; then
    echo "verify: telemetry scrapes differ between seeded reruns" >&2
    diff "$scrape_a" "$scrape_b" | head -20 >&2
    exit 1
fi

# Lint determinism: the static analyzer's report over the corpus must
# be byte-identical across two full CLI invocations (stable diagnostic
# ordering is part of the wire contract).
lint_a=$(mktemp) lint_b=$(mktemp)
trap 'rm -f "$trace_a" "$trace_b" "$scrape_a" "$scrape_b" "$lint_a" "$lint_b"' EXIT
cargo run -q --example dgf_lint -- tests/lint_corpus/*.xml >"$lint_a" || true
cargo run -q --example dgf_lint -- tests/lint_corpus/*.xml >"$lint_b" || true
if ! cmp -s "$lint_a" "$lint_b"; then
    echo "verify: dgf-lint reports differ between reruns over the corpus" >&2
    diff "$lint_a" "$lint_b" | head -20 >&2
    exit 1
fi
if ! grep -q 'DGF001' "$lint_a"; then
    echo "verify: dgf-lint corpus run did not surface DGF001; analyzer regressed" >&2
    exit 1
fi
cargo test -q -p datagridflows --test lint_corpus

# Crash-recovery determinism: the seeded crash/recover demo must report
# byte-identical state vs its uninterrupted control, twice over (the
# journal replay itself is deterministic), the journal bytes it leaves
# at the crash and after recovery's checkpoint must be identical across
# the two runs, and the exhaustive kill-at-every-record-boundary suite
# must pass.
recover_a=$(mktemp) recover_b=$(mktemp)
trap 'rm -f "$trace_a" "$trace_b" "$scrape_a" "$scrape_b" "$lint_a" "$lint_b" "$recover_a"* "$recover_b"*' EXIT
DGF_JOURNAL_OUT="$recover_a" cargo run -q --example dgf_recover >"$recover_a"
DGF_JOURNAL_OUT="$recover_b" cargo run -q --example dgf_recover >"$recover_b"
if ! cmp -s "$recover_a" "$recover_b"; then
    echo "verify: crash-recovery runs differ between seeded reruns" >&2
    diff "$recover_a" "$recover_b" | head -20 >&2
    exit 1
fi
for stage in crash recovered; do
    if ! cmp "$recover_a.$stage.dgj" "$recover_b.$stage.dgj"; then
        echo "verify: dgf_recover journal bytes ($stage) differ between seeded reruns" >&2
        exit 1
    fi
done
if ! grep -q 'recovery OK: crash at full flight, byte-identical state after reboot' "$recover_a"; then
    echo "verify: dgf_recover did not certify byte-identical recovery" >&2
    tail -5 "$recover_a" >&2
    exit 1
fi
if grep -qE 'divergences=[1-9]' "$recover_a"; then
    echo "verify: journal replay reported divergences" >&2
    exit 1
fi
cargo test -q -p datagridflows --test chaos kill_at_every_record_boundary

# Federation determinism: the two-shard fabric demo (cross-domain
# delegation, bus crash mid-delivery, full-federation recovery) must
# report byte-identical output across seeded reruns, certify
# byte-identical per-shard state, and the exhaustive
# kill-at-every-bus-message-boundary suite must pass.
fabric_a=$(mktemp) fabric_b=$(mktemp)
trap 'rm -f "$trace_a" "$trace_b" "$scrape_a" "$scrape_b" "$lint_a" "$lint_b" "$recover_a"* "$recover_b"* "$fabric_a" "$fabric_b"' EXIT
cargo run -q --example dgf_fabric >"$fabric_a"
cargo run -q --example dgf_fabric >"$fabric_b"
if ! cmp -s "$fabric_a" "$fabric_b"; then
    echo "verify: federation recovery runs differ between seeded reruns" >&2
    diff "$fabric_a" "$fabric_b" | head -20 >&2
    exit 1
fi
if ! grep -q 'federation recovery OK: shard killed mid-delegation, byte-identical after reboot' "$fabric_a"; then
    echo "verify: dgf_fabric did not certify byte-identical federation recovery" >&2
    tail -5 "$fabric_a" >&2
    exit 1
fi
cargo test -q -p dgf-fabric
cargo test -q -p datagridflows --test chaos kill_at_every_bus_message_boundary

# Time-travel determinism: the scripted console demo (replay-to-
# ordinal, diff, bisect, verified Perfetto export) must be
# byte-identical across seeded reruns, and the bisections must land.
travel_a=$(mktemp) travel_b=$(mktemp)
trap 'rm -f "$trace_a" "$trace_b" "$scrape_a" "$scrape_b" "$lint_a" "$lint_b" "$recover_a"* "$recover_b"* "$fabric_a" "$fabric_b" "$travel_a" "$travel_b"' EXIT
cargo run -q --example dgf_time_travel >"$travel_a"
cargo run -q --example dgf_time_travel >"$travel_b"
if ! cmp -s "$travel_a" "$travel_b"; then
    echo "verify: time-travel console runs differ between seeded reruns" >&2
    diff "$travel_a" "$travel_b" | head -20 >&2
    exit 1
fi
if ! grep -q 'bisect stalled: first true at ordinal' "$travel_a"; then
    echo "verify: dgf_time_travel did not bisect the stall" >&2
    tail -5 "$travel_a" >&2
    exit 1
fi
if ! grep -q 'perfetto export: .* — verified' "$travel_a"; then
    echo "verify: dgf_time_travel perfetto export failed verification" >&2
    exit 1
fi

# Profile-structure determinism: the dgf-prof phase tree (wall/alloc
# fields zeroed; tree shape, call counts, sim-time totals kept) must be
# byte-identical across two identically-seeded runs.
profile_a=$(mktemp) profile_b=$(mktemp)
trap 'rm -f "$trace_a" "$trace_b" "$scrape_a" "$scrape_b" "$lint_a" "$lint_b" "$recover_a"* "$recover_b"* "$fabric_a" "$fabric_b" "$travel_a" "$travel_b" "$profile_a" "$profile_b"' EXIT
DGF_PROFILE_OUT="$profile_a" cargo run -q --example observability >/dev/null
DGF_PROFILE_OUT="$profile_b" cargo run -q --example observability >/dev/null
if ! cmp -s "$profile_a" "$profile_b"; then
    echo "verify: profile structures differ between seeded reruns" >&2
    diff "$profile_a" "$profile_b" | head -20 >&2
    exit 1
fi
if ! grep -q 'step-execute;provenance-append calls=' "$profile_a"; then
    echo "verify: profile structure lost the step-execute/provenance nesting" >&2
    cat "$profile_a" >&2
    exit 1
fi

# Attribution determinism: the dgf_why console runs a seeded scenario
# (WAN-bound, queue-bound, window-bound, and mid-fire flows), asserts
# the critical-path partition invariant and the alert lifecycles
# in-process, and dumps the full wire-format whyReport. Two runs must
# produce byte-identical reports.
why_a=$(mktemp) why_b=$(mktemp) why_console=$(mktemp)
trap 'rm -f "$trace_a" "$trace_b" "$scrape_a" "$scrape_b" "$lint_a" "$lint_b" "$recover_a"* "$recover_b"* "$fabric_a" "$fabric_b" "$travel_a" "$travel_b" "$profile_a" "$profile_b" "$why_a" "$why_b" "$why_console"' EXIT
DGF_WHY_OUT="$why_a" cargo run -q --example dgf_why >"$why_console"
DGF_WHY_OUT="$why_b" cargo run -q --example dgf_why >/dev/null
if ! cmp -s "$why_a" "$why_b"; then
    echo "verify: whyReport differs between seeded reruns" >&2
    diff "$why_a" "$why_b" | head -20 >&2
    exit 1
fi
if ! grep -q 'flows analyzed' "$why_console" || ! grep -q 'bottlenecks (grid-wide, by critical-path time):' "$why_console"; then
    echo "verify: dgf_why console output lost its attribution sections" >&2
    tail -10 "$why_console" >&2
    exit 1
fi
if ! grep -q '<whyReport' "$why_a"; then
    echo "verify: DGF_WHY_OUT did not capture a wire-format whyReport" >&2
    exit 1
fi
if ! cmp -s "$why_a" tests/example_golden/dgf_why.report.xml; then
    echo "verify: whyReport differs from tests/example_golden/dgf_why.report.xml" >&2
    diff "$why_a" tests/example_golden/dgf_why.report.xml | head -20 >&2 || true
    exit 1
fi

# The BENCH trajectory runner must execute end-to-end (smoke mode) and
# emit a report naming every workload inside a trajectory entry.
./scripts/bench_report --smoke >/dev/null
for workload in engine_throughput journal_replay dgl_parse \
    fabric_scaling_s1 fabric_scaling_s2 fabric_scaling_s4 fabric_manyflows; do
    if ! grep -q "\"name\": \"$workload\"" target/BENCH_engine.smoke.json; then
        echo "verify: bench_report smoke run is missing workload $workload" >&2
        exit 1
    fi
done
if ! grep -q '"trajectory": \[' target/BENCH_engine.smoke.json; then
    echo "verify: bench_report no longer emits the trajectory format" >&2
    exit 1
fi

echo "verify: OK"
