#!/usr/bin/env bash
# Regenerates every table, figure and ablation of the reproduction into
# results/ (text + CSV embedded in each report). Takes well under a
# minute on a laptop: the experiments run on the simulated UV 2000.
#
# With --check nothing is overwritten: the reports go to a temporary
# directory and are diffed against results/ (CI's `results-drift` step).
# The CSV blocks print full precision, so that is a bit-equality gate on
# every simulated statistic — and on results/ holding exactly the
# reports of the list below.
set -euo pipefail
cd "$(dirname "$0")/.."
out=results
if [[ "${1:-}" == --check ]]; then
  out=$(mktemp -d)
  trap 'rm -rf "$out"' EXIT
fi
mkdir -p "$out"
cargo build --release --offline -p islands-bench

BINARIES=(
  fig1            # Fig. 1  — the two scenarios, counted
  table1          # Table 1 — original serial/parallel init, (3+1)D
  table2          # Table 2 — extra elements, variants A/B
  table3          # Table 3 + Fig. 2 — times, S_pr, S_ov
  table4          # Table 4 — Gflop/s, utilization, efficiency
  traffic         # §3.2    — 133 GB → 30 GB traffic claim
  variants        # §5      — variant A vs B
  ablation2d      # A1      — 2-D island grids
  ablation_teams  # A2      — islands within a CPU
  ablation_link   # A3      — interconnect sensitivity
  ablation_exchange # E8    — recompute vs exchange
  scaleout        # E9      — multi-IRU strong/weak scaling
  model_check     # E10     — closed-form model vs engine
  cache_study     # E11     — cache-model check of the (3+1)D premise
  halo_report     # analysis — per-stage halo/redundancy breakdown
)
for b in "${BINARIES[@]}"; do
  echo "== $b =="
  "./target/release/$b" | tee "$out/$b.txt"
  echo
done
if [[ $out == results ]]; then
  echo "All experiment reports written to results/."
else
  diff -r results "$out"
  echo "results/ matches all ${#BINARIES[@]} regenerated reports."
fi
