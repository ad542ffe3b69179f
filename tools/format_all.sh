#!/usr/bin/env sh
# One-time blessed clang-format pass (and later touch-ups).
#
#   tools/format_all.sh          reformat the tree in place
#   tools/format_all.sh --bless  reformat AND drop tools/.format_blessed,
#                                the marker that flips the format_check
#                                ctest from informational to fatal (see
#                                tools/format_check.cmake)
#
# Requires a clang-format whose MAJOR version matches tools/format_version
# — cross-major clang-format output differs spuriously, which is exactly
# the churn the pin exists to prevent.  Commit the result of --bless in
# its own commit so the reformat diff stays separate from real changes.
set -eu

here=$(CDPATH= cd -- "$(dirname -- "$0")" && pwd)
root=$(dirname -- "$here")
pin=$(cat "$here/format_version")

cf=""
for cand in "clang-format-$pin" clang-format; do
    if command -v "$cand" >/dev/null 2>&1; then
        cf=$cand
        break
    fi
done
if [ -z "$cf" ]; then
    echo "format_all: no clang-format found (need major $pin)" >&2
    exit 2
fi
major=$("$cf" --version | sed -n 's/.*clang-format version \([0-9]*\).*/\1/p')
if [ "$major" != "$pin" ]; then
    echo "format_all: $cf is major $major, pin is $pin" \
         "(tools/format_version); refusing the cross-major churn" >&2
    exit 2
fi

cd "$root"
files=$(find src bench tests examples \
            \( -name '*.h' -o -name '*.cc' -o -name '*.cpp' \) \
            -not -path '*lint_fixtures*' \
            -not -path '*semantic_fixtures*' 2>/dev/null)
n=0
for f in $files; do
    "$cf" -i "$f"
    n=$((n + 1))
done
echo "format_all: reformatted $n file(s) with $cf (major $major)"

if [ "${1:-}" = "--bless" ]; then
    {
        echo "# Blessed clang-format pass marker."
        echo "# Created by tools/format_all.sh --bless with $cf"
        echo "# (major $major, pin $pin).  While this file exists and the"
        echo "# detected clang-format matches the pin, the format_check"
        echo "# ctest fails on any drift."
    } > "$here/.format_blessed"
    echo "format_all: wrote $here/.format_blessed -- format_check is now" \
         "fatal under clang-format major $pin"
fi
