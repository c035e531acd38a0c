#!/usr/bin/env bash
# Console smoke test of the fotsim script on PATH, run from the repository root:
#   RUNNER_TEMP=$(mktemp -d) bash .github/smoke.sh
set -eo pipefail
T=${RUNNER_TEMP:?set RUNNER_TEMP to a temporary directory}
S=src/fotsim/scenarios
# doc NAME FILE EDIT: FILE's document after the Python statement EDIT on d, as $T/NAME.json
doc() { python -c "import json, sys; d = json.load(open(sys.argv[1])); $3; json.dump(d, open(sys.argv[2], 'w'))" "$2" "$T/$1.json"; }
# same DOC NAME [1cpu]: two runs of DOC write equal trees, and with 1cpu a third on one CPU too
same() {
  fotsim run --scenario "$1" --out "$T/$2_a"
  fotsim run --scenario "$1" --out "$T/$2_b"
  diff -r "$T/$2_a" "$T/$2_b"
  if [ "$3" = 1cpu ]; then
    taskset -c 0 fotsim run --scenario "$1" --out "$T/$2_1cpu"
    diff -r "$T/$2_a" "$T/$2_1cpu"
  fi
}
# refused DOC PATTERN: exit 1, an error line matching PATTERN, no traceback, nothing written
refused() {
  local out=${1%.json} status=0
  fotsim run --scenario "$1" --out "$out" 2> "$out.err" || status=$?
  cat "$out.err"
  test "$status" = 1
  grep -q "^error: .*$2" "$out.err"
  if grep -q Traceback "$out.err"; then return 1; fi
  test ! -e "$out"
}
# quiet CMD...: CMD exits 0 with nothing on stderr
quiet() {
  "$@" 2> "$T/quiet.err" || { cat "$T/quiet.err" >&2; return 1; }
  cat "$T/quiet.err" >&2
  test ! -s "$T/quiet.err"
}

fotsim scenarios
fotsim calibrate --scenario demo_short
fotsim run --scenario demo_short --out "$T/demo"
# two runs with an access node match byte for byte on every Python, also where test_digests skips
same midlink_access_230km midlink
# no canned scenario runs the round scan's emit-time and quantization branches: with both too
doc midlink_emit $S/midlink_access_230km.json "d['link']['evaluate_at_emit_time'] = True; d['tics']['server']['resolution_s'] = d['tics']['user']['resolution_s'] = 1e-11"
same "$T/midlink_emit.json" midlink_emit
# no canned scenario has flicker noise: two runs of the flicker workload's scenario match, its
# two clocks synthesized on two workers, one clock each, or on one under taskset -c 0.  At 2^18
# samples OpenBLAS splits TDEV's dot products over its threads, so these runs and the curves
# read back below use one
export OPENBLAS_NUM_THREADS=1
same perfbench/inputs/clocks_flicker.json flicker 1cpu
# only the two-node workload's scenario has three round tables sharing columns over many CSV chunks
same perfbench/inputs/sync_nodes.json sync_nodes
# no other input has flicker in both clocks of a sync run: queried on two workers, or on one
doc sync_flicker $S/link_sync_230km.json "[c['noise'].extend([{'type': 'flicker_pm', 'amplitude': 1e-11}, {'type': 'flicker_fm', 'amplitude': 1e-13}]) for c in d['clocks'].values()]"
same "$T/sync_flicker.json" sync_flicker 1cpu
# the flicker spectra are cached process-wide, each batch taken from one kernel built at its
# largest size: in one process the sync run caches the spectra of 1024 to 16384 samples, and
# the flicker run after it takes its larger ones from a longer kernel.  Neither run's bytes change
python -c "import sys; from fotsim.scenario import load_scenario, run; [run(load_scenario(s), o) for s, o in zip(sys.argv[1::2], sys.argv[2::2])]" "$T/sync_flicker.json" "$T/sync_flicker_c" perfbench/inputs/clocks_flicker.json "$T/flicker_c"
diff -r "$T/sync_flicker_a" "$T/sync_flicker_c"
diff -r "$T/flicker_a" "$T/flicker_c"
# flicker in the user clock only: both clocks queried on the calling thread, classes in turn
doc sync_user_flicker $S/link_sync_230km.json "d['clocks']['user']['noise'].extend([{'type': 'flicker_pm', 'amplitude': 1e-11}, {'type': 'flicker_fm', 'amplitude': 1e-13}])"
same "$T/sync_user_flicker.json" sync_user_flicker 1cpu
# its 8 MB series is many blocks of the CSV reader, parsed on two workers or on one: same bytes
fotsim tdev --input "$T/flicker_a/series.csv" --tau0 1 --out "$T/flicker_tdev.csv"
cmp "$T/flicker_a/tdev.csv" "$T/flicker_tdev.csv"
taskset -c 0 fotsim tdev --input "$T/flicker_a/series.csv" --tau0 1 --out "$T/flicker_tdev_1cpu.csv"
cmp "$T/flicker_a/tdev.csv" "$T/flicker_tdev_1cpu.csv"
unset OPENBLAS_NUM_THREADS
# a run's curve and the curve of its series read back from CSV match byte for byte: the round
# trip keeps every sample's bits.  On one CPU the taus run on one worker instead of two
fotsim run --scenario link_sync_230km --out "$T/link"
fotsim tdev --input "$T/link/series.csv" --tau0 1 --out "$T/link_tdev.csv"
cmp "$T/link/tdev.csv" "$T/link_tdev.csv"
taskset -c 0 fotsim tdev --input "$T/link/series.csv" --tau0 1 --out "$T/link_tdev_1cpu.csv"
cmp "$T/link_tdev.csv" "$T/link_tdev_1cpu.csv"
# two runs' curve files read back through the script; a reader that closes stdout before the
# table is written is not an i/o error
fotsim compare "$T/link" "$T/midlink_a"
quiet fotsim compare "$T/link" "$T/midlink_a" | true
# curves at sub-nanosecond taus: compare keeps one row per tau
python -c "import sys; from pathlib import Path; from fotsim.scenario import write_curve_csv; from fotsim.stability import StabilityCurve; [write_curve_csv(Path(p), StabilityCurve([1e-10, 2e-10, 5e-10, 1e-9], [1e-12, 2e-12, 3e-12, 4e-12], [64, 32, 16, 8])) for p in sys.argv[1:]]" "$T/subns_a.csv" "$T/subns_b.csv"
fotsim compare "$T/subns_a.csv" "$T/subns_b.csv" | tee "$T/subns.txt"
test "$(grep -cE '^ *[0-9]' "$T/subns.txt")" = 4
# curves whose first value is 0, as a run without noise writes: compare prints them quietly
python -c "import sys; from pathlib import Path; from fotsim.scenario import write_curve_csv; from fotsim.stability import StabilityCurve; [write_curve_csv(Path(p), StabilityCurve([1.0, 2.0], [0.0, v], [64, 32])) for p, v in zip(sys.argv[1:], [0.0, 1e-12])]" "$T/zero_a.csv" "$T/zero_b.csv"
quiet fotsim compare "$T/zero_a.csv" "$T/zero_b.csv"
# --seed S runs the document with master_seed S: the CSVs of the document that sets it, byte
# for byte, and a manifest that records S
doc seed99 $S/midlink_access_230km.json "d['master_seed'] = 99"
fotsim run --scenario midlink_access_230km --seed 99 --out "$T/seed_option"
fotsim run --scenario "$T/seed99.json" --out "$T/seed_doc"
for f in "$T"/seed_doc/*.csv; do cmp "$f" "$T/seed_option/${f##*/}"; done
test "$(ls "$T/seed_doc")" = "$(ls "$T/seed_option")"
grep -q '^  "master_seed": 99,$' "$T/seed_option/manifest.json"
# config errors, each found before anything is allocated and named by its key: two access
# nodes of one name; a key of the other mode, which that mode does not use (not dropped in
# silence or built unused): an access node, a link, a protocol or hardware delays in a
# clocks_only run, a sample period in a sync run; an amplifier past the link's end; a calibration set whose C is not the protocol's;
# an applied calibration the document neither gives nor builds; a NaN tau; a run past the size
# cap in either mode, by a long duration or a short sample period; a noise grid coarser than
# the run
doc dup_nodes $S/midlink_access_230km.json "d['access_nodes'] *= 2"
refused "$T/dup_nodes.json" access_nodes
doc clocks_node $S/free_running_clocks.json "d['access_nodes'] = json.load(open('$S/midlink_access_230km.json'))['access_nodes'][:1]"
refused "$T/clocks_node.json" access_nodes
doc clocks_link $S/free_running_clocks.json "d['link'] = json.load(open('$S/link_sync_230km.json'))['link']"
refused "$T/clocks_link.json" link
doc clocks_protocol $S/free_running_clocks.json "d['protocol'] = json.load(open('$S/demo_short.json'))['protocol']"
refused "$T/clocks_protocol.json" protocol
doc clocks_hardware $S/free_running_clocks.json "d['hardware'] = json.load(open('$S/demo_short.json'))['hardware']"
refused "$T/clocks_hardware.json" hardware
doc sync_period $S/demo_short.json "d['sample_period_s'] = 1.0"
refused "$T/sync_period.json" sample_period_s
doc far_amplifier $S/link_sync_230km.json "d['link']['biedfa_position_km'] = 500"
refused "$T/far_amplifier.json" link.biedfa_position_km
doc other_c $S/demo_short.json "d['protocol'].update(auto_calibrate=False, calibration={'reversal_constant_s': 1e-3})"
refused "$T/other_c.json" protocol.calibration.reversal_constant_s
doc no_calibration $S/demo_short.json "d['protocol']['auto_calibrate'] = False"
refused "$T/no_calibration.json" protocol.apply_calibration
doc nan_tau $S/demo_short.json "d['tdev_taus'] = [float('nan')]"
refused "$T/nan_tau.json" tdev_taus
doc huge_clocks_duration $S/free_running_clocks.json "d['duration_s'] = 1e20"
refused "$T/huge_clocks_duration.json" duration_s
doc huge_sync_duration $S/link_sync_230km.json "d['duration_s'] = 1e20"
refused "$T/huge_sync_duration.json" duration_s
doc huge_period $S/free_running_clocks.json "d['sample_period_s'] = 1e-9"
refused "$T/huge_period.json" sample_period_s
doc coarse_grid $S/free_running_clocks.json "d['clocks']['server']['noise_grid_s'] = 1e12"
refused "$T/coarse_grid.json" clocks.server.noise_grid_s
# the console script imports without scipy
python -c "import sys, fotsim.cli; assert not any(m.split('.')[0] == 'scipy' for m in sys.modules)"
