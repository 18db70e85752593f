#!/bin/sh
# Runs clippy with `-D warnings` on the seeded fixture beside this script.
# Passes only if clippy fails and every diagnostic in expected-lints.txt
# fired, so dropping a clippy.toml entry or a lint from the fixture's
# header fails it. The fixture carries its own copy of the crate-root
# header, so the script also checks that every real crate root
# (`src/lib.rs`, `crates/*/src/lib.rs`) denies the header's lints, that
# every library and binary root denies float compares outside tests,
# and that the model crates' roots deny `as` casts.
#
#   sh crates/audit/tests/fixtures/clippy/check.sh [cargo flags, e.g. --offline]
set -u
dir=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$dir/../../../../.." && pwd)
err=$(mktemp)
trap 'rm -f "$err"' EXIT
missing=0

if out=$(cargo clippy --manifest-path "$dir/Cargo.toml" --message-format=json "$@" \
    -- -D warnings 2>"$err"); then
    echo "clippy fixture: clippy passed; the seeded violations must fail it" >&2
    exit 1
fi
while read -r lint path; do
    case "$lint" in '' | '#'*) continue ;; esac
    hits=$(printf '%s\n' "$out" | grep -F "\"code\":\"$lint\"")
    if [ -n "$path" ]; then
        hits=$(printf '%s\n' "$hits" | grep -F "\`$path\`")
    fi
    if [ -z "$hits" ]; then
        echo "clippy fixture: $lint ${path:+($path) }did not fire" >&2
        missing=1
    fi
done <"$dir/expected-lints.txt"
if [ "$missing" -ne 0 ]; then
    echo "clippy fixture: cargo's stderr follows" >&2
    cat "$err" >&2
fi

# The real crate roots' headers. gh-bench, the harness, aborts on purpose
# and denies only `iter_over_hash_type`.
header="unwrap_used expect_used panic unreachable todo unimplemented iter_over_hash_type allow_attributes_without_reason"
for lib in "$root/src/lib.rs" "$root"/crates/*/src/lib.rs; do
    case "$lib" in
    */crates/bench/src/lib.rs) lints=iter_over_hash_type ;;
    *) lints=$header ;;
    esac
    denied=$(awk '/^#!\[deny\(/ { on = 1 } on { print } on && /\)\]/ { on = 0 }' "$lib")
    for lint in $lints; do
        if ! printf '%s\n' "$denied" | grep -Eq "clippy::$lint([,)]|\$)"; then
            echo "crate root ${lib#"$root"/}: no #![deny(clippy::$lint)]" >&2
            missing=1
        fi
    done
done

# Float compares in every library and binary root; `as` casts in the
# model crates, whose casts go through gh-units' helpers.
float='#![cfg_attr(not(test), deny(clippy::float_cmp, clippy::float_cmp_const))]'
cast='#![cfg_attr(not(test), deny(clippy::as_conversions))]'
for f in "$root/src/lib.rs" "$root"/crates/*/src/lib.rs "$root"/src/bin/*.rs \
    "$root"/crates/*/src/main.rs "$root"/crates/*/src/bin/*.rs; do
    [ -e "$f" ] || continue
    if ! grep -qxF "$float" "$f"; then
        echo "crate root ${f#"$root"/}: no $float" >&2
        missing=1
    fi
done
for f in "$root"/crates/mem/src/lib.rs "$root"/crates/os/src/lib.rs "$root"/crates/cuda/src/lib.rs; do
    if ! grep -qxF "$cast" "$f"; then
        echo "crate root ${f#"$root"/}: no $cast" >&2
        missing=1
    fi
done

[ "$missing" -eq 0 ] && echo "clippy fixture: clippy failed with every expected lint; every crate root denies the header lints"
exit "$missing"
