#!/usr/bin/env bash
# Runs all four workloads twice on this checkout — the timed run and the
# traced run of each — and fails unless the two sets agree: every
# end-to-end median of the second set within the metric's bound (from
# BENCHMARK.json) of the first, and every exact count equal. Prints one row
# per metric × workload. Takes about ten minutes on two cores.
#
#   benchmark/selfcheck.sh [--seed S]
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
seed=48313
if [[ "${1:-}" == "--seed" ]]; then
    seed="$2"
fi

# Built from this directory so that .cargo/config.toml (target-dir =
# ../target) applies unless CARGO_TARGET_DIR overrides it.
(cd "$here" && cargo build --release --quiet)
target="${CARGO_TARGET_DIR:-$root/target}"
bin="$target/release/bcbpt-benchmark"
[[ -x "$bin" ]] || { echo "selfcheck: $bin not found" >&2; exit 1; }

work="$here/out/selfcheck-$$"
mkdir -p "$work"
trap 'rm -rf "$work"' EXIT

workloads=(txflood-fig3 paper-slice mining-relay serve-shards)
for set in 1 2; do
    for workload in "${workloads[@]}"; do
        for mode in run trace; do
            echo "selfcheck: set $set  $mode  $workload" >&2
            # The record path is on the line before the result line.
            "$bin" "$mode" --workload "$workload" --seed "$seed" \
                > "$work/$set-$workload-$mode.txt"
            record="$(grep '^record ' "$work/$set-$workload-$mode.txt" | tail -1 | cut -d' ' -f2-)"
            cp "$record" "$work/$set-$workload-$mode.json"
        done
    done
done

python3 - "$root/BENCHMARK.json" "$work" "${workloads[@]}" <<'PY'
import json, sys

bench = json.load(open(sys.argv[1]))
work, workloads = sys.argv[2], sys.argv[3:]
bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
failed = 0
print(f"{'workload':14} {'metric':34} {'unit':>6} {'first':>16} {'second':>16} {'change':>9}  verdict")
for workload in workloads:
    for mode in ("run", "trace"):
        first, second = (
            {m["name"]: m for m in json.load(open(f"{work}/{s}-{workload}-{mode}.json"))["metrics"]}
            for s in (1, 2)
        )
        for name, a in first.items():
            b = second.get(name)
            if b is None:
                ok, verdict, change = False, "MISSING in second set", float("nan")
            else:
                change = (b["median"] - a["median"]) / a["median"] if a["median"] else 0.0
                if name in bounds:
                    ok = abs(change) <= bounds[name]
                    verdict = f"within {bounds[name]:.0%}" if ok else f"OUTSIDE {bounds[name]:.0%}"
                elif a["exact"]:
                    ok = (a["median"], a["q1"], a["q3"], a["n"]) == (b["median"], b["q1"], b["q3"], b["n"])
                    verdict = "exact: equal" if ok else "exact: DIFFERS"
                else:
                    ok, verdict = True, "per-layer timing (no bound)"
                failed += not ok
            bm = b["median"] if b else float("nan")
            print(f"{workload:14} {name:34} {a['unit']:>6} {a['median']:16.6f} {bm:16.6f} {change:+9.2%}  {verdict}")
print(f"selfcheck: {failed} metric(s) disagree between the two sets")
sys.exit(1 if failed else 0)
PY
