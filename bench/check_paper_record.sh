#!/usr/bin/env bash
# Check the paper record: rerun every figure and table bench and the
# protocol bench, then compare what they write byte for byte with the
# copies committed at the repository root (the 16 figure/table CSVs and
# BENCH_async.json). Usage:
#
#   bash bench/check_paper_record.sh BUILD_DIR
#
# BUILD_DIR is a built tree of this checkout (e.g. `build`). The benches
# run at quick scale in a temporary directory, with FEDGPO_BENCH_FULL and
# FEDGPO_FAST_MATH unset. Modeled outputs depend on neither the host nor
# the thread count, so every file must match. Exits 1 and names every
# file that differs; about 2.5 minutes on 4 vCPUs.
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 BUILD_DIR" >&2
    exit 2
fi
repo=$(cd "$(dirname "$0")/.." && pwd)
bin=$(cd "$1/bench" && pwd)
unset FEDGPO_BENCH_FULL FEDGPO_FAST_MATH

benches=(
    fig01_param_sweep fig02_nn_characteristics fig03_straggler
    fig04_runtime_variance fig05_adaptive_energy fig06_adaptive_ppw
    fig07_data_heterogeneity fig09_overview fig10_variance_adaptability
    fig11_heterogeneity_adaptability fig12_prior_work
    table5_prediction_accuracy ablation_hyperparams sec54_overhead
    async_bench
)
record=(
    fig01_param_sweep.csv fig02_nn_characteristics.csv
    fig03a_straggler_batch.csv fig03b_straggler_epochs.csv
    fig04_runtime_variance.csv fig05_adaptive_energy.csv
    fig06a_convergence.csv fig06bc_summary.csv
    fig07_data_heterogeneity.csv fig09_overview.csv
    fig10_variance_adaptability.csv fig11_heterogeneity_adaptability.csv
    fig12_prior_work.csv table5_prediction_accuracy.csv
    ablation_hyperparams.csv sec54_convergence.csv BENCH_async.json
)

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"
for b in "${benches[@]}"; do
    start=$SECONDS
    if ! "$bin/$b" > "$b.log" 2>&1; then
        tail -n 20 "$b.log" >&2
        echo "check_paper_record: $b failed" >&2
        exit 1
    fi
    echo "ran $b ($((SECONDS - start)) s)"
done

status=0
for f in "${record[@]}"; do
    if ! cmp -s "$f" "$repo/$f"; then
        echo "check_paper_record: $f differs from the committed copy" >&2
        status=1
    fi
done
if [ "$status" -eq 0 ]; then
    echo "check_paper_record: all ${#record[@]} files match"
fi
exit "$status"
