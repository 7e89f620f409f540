#!/usr/bin/env bash
# Benchmark-trajectory snapshot: runs the headline gate-cosim benchmark,
# the full-population PPSFP fault campaigns and the service soak, and
# folds the google-benchmark JSON reports into a committed BENCH_<date>.json
# (schema scflow-bench-1, see scripts/bench_compare.py).  The pinned
# metrics are the cycle throughputs of the two synthesized Fig. 10 gate
# netlists on GateSim under the VHDL-style testbench (reported as
# patt_cyc_per_s, equal to cyc_per_s), the faults/s of every Fig. 10
# design's full-list PPSFP campaign pair — CompiledSim's speed — and the
# serve soak rate, so a later change that quietly slows either engine
# >20% fails scripts/check.sh.
#
# Usage: scripts/bench_trajectory.sh [OUT.json]
#   REPEAT=N   repetitions per benchmark; the ratchet keeps the best run,
#              so more repeats only stabilise the number (default 3)
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS=$(nproc 2>/dev/null || echo 4)
REPEAT="${REPEAT:-3}"
OUT="${1:-BENCH_$(date +%F).json}"
FILTER='Fig9_Gate(BEH|RTL)_VhdlTestbench'
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

cmake -B build -S . >/dev/null
cmake --build build -j"$JOBS" --target bench_fig9_cosim bench_fault bench_serve >/dev/null

# Provenance for the gbench "context" stamp (scflow_rev/host/threads via
# bench_json_main.hpp) — the same rev lands in the trajectory file below.
export SCFLOW_GIT_REV="$(git rev-parse HEAD)"

echo "== bench_fig9_cosim (repeat $REPEAT) =="
./build/bench/bench_fig9_cosim \
  --benchmark_filter="$FILTER" --repeat "$REPEAT" \
  --benchmark_out="$TMP/fig9.gbench.json" \
  --benchmark_out_format=json >/dev/null

# Full-population stuck-at campaigns (scan + noscan pair per design) on
# the PPSFP engine — the fault-throughput half of the trajectory.  A
# fixed thread count keeps the number comparable across machines.
echo "== bench_fault --engine ppsfp --faults 0 (repeat $REPEAT) =="
./build/bench/bench_fault --engine ppsfp --faults 0 --threads 4 \
  --repeat "$REPEAT" --gbench-json "$TMP/fault.gbench.json" >/dev/null

# Streaming SRC service soak (512 sessions over 8 rate pairs, 4 lanes) —
# the aggregate conversion throughput of the session scheduler.
echo "== bench_serve --threads 4 (repeat $REPEAT) =="
./build/bench/bench_serve --threads 4 \
  --repeat "$REPEAT" --gbench-json "$TMP/serve.gbench.json" >/dev/null

python3 scripts/bench_compare.py emit \
  --rev "$(git rev-parse HEAD)" \
  --out "$OUT" \
  --pin 'fig9_cosim[interpreted]/Fig9_GateBEH_VhdlTestbench.patt_cyc_per_s' \
  --pin 'fig9_cosim[interpreted]/Fig9_GateRTL_VhdlTestbench.patt_cyc_per_s' \
  --pin 'fault/fault_vhdl_ref.faults_per_s' \
  --pin 'fault/fault_beh_unopt.faults_per_s' \
  --pin 'fault/fault_beh_opt.faults_per_s' \
  --pin 'fault/fault_rtl_unopt.faults_per_s' \
  --pin 'fault/fault_rtl_opt.faults_per_s' \
  --pin 'serve/serve_soak.sessions_samples_per_s' \
  "fig9_cosim[interpreted]=$TMP/fig9.gbench.json" \
  "fault=$TMP/fault.gbench.json" \
  "serve=$TMP/serve.gbench.json"

python3 - "$OUT" <<'EOF'
import json, sys
data = json.load(open(sys.argv[1]))
b = data["benches"]
for design in ("GateBEH", "GateRTL"):
    rate = b["fig9_cosim[interpreted]"][f"Fig9_{design}_VhdlTestbench.cyc_per_s"]
    print(f"  {design}: {rate:.3g} cyc/s (VHDL testbench, GateSim)")
for slug in ("vhdl_ref", "beh_unopt", "beh_opt", "rtl_unopt", "rtl_opt"):
    fps = b["fault"][f"fault_{slug}.faults_per_s"]
    print(f"  fault {slug}: {fps:.3g} faults/s (full list, ppsfp)")
rate = b["serve"]["serve_soak.sessions_samples_per_s"]
print(f"  serve soak: {rate:.3g} sessions x samples/s (512 sessions, 4 lanes)")
EOF
