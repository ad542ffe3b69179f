#!/usr/bin/env bash
# seed_diff.sh <base-rev> [scale] — prove "figure benches unchanged".
#
# Exports <base-rev> with `git archive` into a temporary directory outside
# the repository and builds the figure/table benches of that export and of
# the working tree: every igs_add_bench target in bench/CMakeLists.txt
# except the host-wall-clock ones (bench_micro_*, bench_analytics_wall)
# and bench_golden_replay (it needs a --set, and `ctest -L golden`
# already diffs it).  Runs each
# bench in both trees at IGS_BENCH_SCALE=<scale> (default 0.3) and
# byte-diffs their stdout.  Figure-bench stdout is deterministic, so any
# difference is a behaviour change.
#
# Prints one line per bench: the verdict, then host wall seconds and peak
# RSS (MiB) of the base and working-tree runs (informational only).
# Exits 0 when every bench is byte-identical, 1 on any difference, failed
# run or build failure, 2 on bad usage.  The temporary directory is
# removed on exit.
set -euo pipefail

if [[ $# -lt 1 || $# -gt 2 ]]; then
    echo "usage: $0 <base-rev> [scale]" >&2
    exit 2
fi
scale=${2:-0.3}
repo=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
if ! base_sha=$(git -C "$repo" rev-parse --verify --quiet "$1^{commit}"); then
    echo "seed_diff: unknown revision '$1'" >&2
    exit 2
fi

work=$(mktemp -d "${TMPDIR:-/tmp}/seed_diff.XXXXXX")
trap 'rm -rf "$work"' EXIT
mkdir "$work/base" "$work/run-base" "$work/run-change"
git -C "$repo" archive "$base_sha" | tar -x -C "$work/base"

# Figure/table benches declared by a source tree.
benches() {
    sed -n 's/^igs_add_bench(\(bench_[A-Za-z0-9_]*\))$/\1/p' \
        "$1/bench/CMakeLists.txt" |
        grep -v -e '^bench_micro_' -e '^bench_analytics_wall$' \
            -e '^bench_golden_replay$'
}

# build <source-dir> <build-dir> <target>...
build() {
    local src=$1 dir=$2
    shift 2
    if ! { cmake -S "$src" -B "$dir" -DCMAKE_BUILD_TYPE=RelWithDebInfo &&
           cmake --build "$dir" -j "$(nproc)" --target "$@"; } \
            >"$dir.log" 2>&1; then
        tail -n 20 "$dir.log" >&2
        echo "seed_diff: build of $src failed" >&2
        exit 1
    fi
}

mapfile -t base_benches < <(benches "$work/base")
mapfile -t change_benches < <(benches "$repo")
mapfile -t common < <(comm -12 <(printf '%s\n' "${base_benches[@]}" | sort) \
                               <(printf '%s\n' "${change_benches[@]}" | sort))
for only in $(comm -3 <(printf '%s\n' "${base_benches[@]}" | sort) \
                      <(printf '%s\n' "${change_benches[@]}" | sort)); do
    echo "seed_diff: $only exists in one tree only; not compared" >&2
done

echo "seed_diff: building ${#common[@]} benches at $base_sha and the working tree"
build "$work/base" "$work/base-build" "${common[@]}"
build "$repo" "$work/change-build" "${common[@]}"

# run <binary> <run-dir> <stdout-file> -> "<wall s> <peak RSS MiB> <exit code>"
run() {
    IGS_BENCH_SCALE=$scale python3 - "$@" <<'PY'
import resource, subprocess, sys, time
binary, cwd, out = sys.argv[1:]
start = time.monotonic()
with open(out, "wb") as f:
    rc = subprocess.run([binary], cwd=cwd, stdout=f,
                        stderr=subprocess.DEVNULL).returncode
rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss // 1024
print(f"{time.monotonic() - start:.1f} {rss} {rc}")
PY
}

status=0
printf '%-34s %-10s %18s %18s\n' bench verdict 'base s / MiB' 'change s / MiB'
for b in "${common[@]}"; do
    read -r bs bm brc < <(run "$work/base-build/bench/$b" "$work/run-base" \
                              "$work/$b.base.txt")
    read -r cs cm crc < <(run "$work/change-build/bench/$b" \
                              "$work/run-change" "$work/$b.change.txt")
    if [[ $brc != 0 || $crc != 0 ]]; then
        verdict="FAILED($brc/$crc)"
        status=1
    elif cmp -s "$work/$b.base.txt" "$work/$b.change.txt"; then
        verdict=identical
    else
        verdict=DIFFERS
        status=1
        diff "$work/$b.base.txt" "$work/$b.change.txt" | head -n 10 >&2 || true
    fi
    printf '%-34s %-10s %10s / %5s %10s / %5s\n' \
        "$b" "$verdict" "$bs" "$bm" "$cs" "$cm"
done
if [[ $status == 0 ]]; then
    echo "seed_diff: all ${#common[@]} benches byte-identical at scale $scale"
else
    echo "seed_diff: differences found" >&2
fi
exit "$status"
