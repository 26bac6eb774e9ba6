#!/usr/bin/env bash
# The one command of the ltgs benchmark: builds the `ltgs` binary and
# the benchmark from source (offline; into $CARGO_TARGET_DIR, or
# bench/target), then hands its arguments to the benchmark. README.md says what it measures; `--help` is the list
# at the top of src/main.rs.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f Cargo.toml ] || [ ! -d crates ]; then
    echo "bench/run.sh: $root is not a checkout of the repository (no Cargo.toml, no crates/)" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-bench/target}"
# Build chatter goes to stderr: the last line of stdout is the result.
cargo build --release --offline --quiet --bin ltgs 1>&2
cargo build --release --offline --quiet --manifest-path bench/Cargo.toml 1>&2
export LTGS_BIN="$CARGO_TARGET_DIR/release/ltgs"
exec "$CARGO_TARGET_DIR/release/ltgs-perfbench" "$@"
