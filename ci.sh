#!/usr/bin/env bash
# CLI smokes: drive every run mode of locaware-exp, locaware-sim and
# locaware-trace end to end on tiny worlds. CI runs this script, and so does anyone verifying a
# change by hand (`./ci.sh` from anywhere in the repository; under a minute
# on one core). The determinism and golden locks live in the test suite;
# these steps catch a broken command-line surface. Scratch files go to a
# temporary directory that is removed on exit.
set -euo pipefail
cd "$(dirname "$0")"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/locaware-exp" ./cmd/locaware-exp
go build -o "$tmp/locaware-sim" ./cmd/locaware-sim
go build -o "$tmp/locaware-trace" ./cmd/locaware-trace
exp=$tmp/locaware-exp
simcmd=$tmp/locaware-sim
trace=$tmp/locaware-trace
step() { printf '\n== %s\n' "$*"; }

# Single run: a -json result must parse and carry the headline keys, a
# churning run must finish, the world flags are the sweep parameters (a run
# through three of them must finish, an old spelling is gone), and a degree
# no overlay is built at, the deleted Locaware-LR protocol and a negative
# TTL or peer count are refused, naming what is wrong.
step single run
"$simcmd" -peers 100 -warmup 40 -queries 120 -json > "$tmp/sim.json"
python3 - "$tmp/sim.json" <<'EOF'
import json, sys
res = json.load(open(sys.argv[1]))
for key in ("Protocol", "SuccessRate", "AvgMessagesPerQuery"):
    assert key in res, "no %s in the -json result" % key
EOF
"$simcmd" -churn -peers 100 -warmup 40 -queries 120
"$simcmd" -peers 100 -warmup 40 -queries 120 -bloom-bits 600 -cache-filenames 20 -query-rate 0.01
sim_refused() { # the text the error must contain, then the flags
	if "$simcmd" -peers 100 -warmup 0 -queries 10 "${@:2}" 2> "$tmp/sim.err"; then
		echo "accepted: ${*:2}" >&2
		exit 1
	fi
	grep -qF -- "$1" "$tmp/sim.err"
}
sim_refused 'avg-degree 0.5 budgets 25 links for 100 peers, below the 99 links' -avg-degree 0.5
sim_refused 'unknown protocol: "Locaware-LR"' -protocol Locaware-LR
sim_refused 'ttl: value -1 must be positive' -ttl -1
sim_refused 'peers: value -5 must be positive' -peers -5
sim_refused 'flag provided but not defined: -bloombits' -bloombits 600

# Modes: locaware-exp runs one of -fig, -scenario and -sweep, and refuses
# a second mode, a sweep-only flag outside -sweep and an explicit budget
# the campaign cannot run, naming the flag or value, where each used to be
# dropped or replaced by the spec's.
step modes
exp_refused() { # the text the error must contain, then the flags
	if "$exp" "${@:2}" > /dev/null 2> "$tmp/exp.err"; then
		echo "accepted: ${*:2}" >&2
		exit 1
	fi
	grep -qF -- "$1" "$tmp/exp.err"
}
exp_refused '-checkpoint needs -sweep' -fig 2 -checkpoint "$tmp/no-ckpt"
test ! -e "$tmp/no-ckpt"
exp_refused '-fig, -scenario and -sweep each name a mode' -fig 2 -sweep ttl-sweep
exp_refused 'queries 0 must be positive' -sweep ttl-sweep -queries 0

# Scenario: registry listing plus a tiny flashcrowd run with per-phase
# tables.
step scenario
"$exp" -scenario list
"$exp" -scenario flashcrowd -peers 120 -warmup 50 -queries 200

# Sweep: registry listing plus a shrunken built-in campaign (explicit flags
# override the spec's budget) with figure tables, tidy CSV and file export.
# A parameter study is a campaign whose spec names its figure metrics:
# bloom-sweep must print and export the run-level gossip-traffic table. A
# cell must run what its label says, and once: a non-positive axis value, an
# integer value too large for its parameter, a protocol named twice and an
# axis value given twice are refused, naming what is wrong. So are a spec
# followed by more data, the deleted Locaware-LR routing extension, and a
# degree, filter size or share count the world's builders cannot honour.
step sweep
"$exp" -sweep list
"$exp" -sweep churn-sweep -peers 100 -warmup 40 -queries 160 -trials 2 -out "$tmp/sweep-smoke"
test -s "$tmp/sweep-smoke/cells.csv" && test -s "$tmp/sweep-smoke/fig_success.csv"
"$exp" -sweep bloom-sweep -peers 100 -warmup 40 -queries 160 -trials 2 -out "$tmp/bloom-smoke" | tee "$tmp/bloom-smoke.log"
grep -q -- '-- Bloom gossip traffic (kbit)' "$tmp/bloom-smoke.log"
grep -q '^bloom-bits,Locaware,Locaware_ci95' "$tmp/bloom-smoke/fig_ctlkbits.csv"
refused() { # spec JSON, then the text the error must contain
	echo "$1" > "$tmp/refused.json"
	if "$exp" -sweep "$tmp/refused.json" 2> "$tmp/refused.err"; then
		echo "accepted: $1" >&2
		exit 1
	fi
	grep -qF -- "$2" "$tmp/refused.err"
}
refused '{"name":"zero","queries":40,"protocols":["Dicas"],"base":{"peers":100},"axes":[{"param":"ttl","values":[0,7]}]}' 'axis "ttl"'
refused '{"name":"wide","queries":40,"protocols":["Dicas"],"base":{"peers":100},"axes":[{"param":"ttl","values":[1e19]}]}' 'axis "ttl": value 1e+19 exceeds'
refused '{"name":"twice","queries":40,"protocols":["Dicas","Dicas"],"axes":[{"param":"ttl","values":[3,5]}]}' 'protocol "Dicas" is listed twice'
refused '{"name":"twice","queries":40,"protocols":["Dicas"],"axes":[{"param":"ttl","values":[3,3]}]}' 'axis "ttl" lists value 3 twice'
refused '{"name":"tail","queries":40,"protocols":["Dicas"],"axes":[{"param":"ttl","values":[7]}]}{"name":"second"} trailing garbage' 'data after the spec'
refused '{"name":"lr","queries":40,"protocols":["Locaware","Locaware-LR"],"axes":[{"param":"ttl","values":[7]}]}' 'unknown protocol "Locaware-LR"'
refused '{"name":"thin","queries":40,"protocols":["Dicas"],"base":{"peers":100},"axes":[{"param":"avg-degree","values":[0.5]}]}' 'avg-degree 0.5 budgets 25 links for 100 peers'
refused '{"name":"dense","queries":40,"protocols":["Dicas"],"axes":[{"param":"avg-degree","values":[20]}]}' 'avg-degree 20 exceeds MaxDegree 12'
refused '{"name":"bits","queries":40,"protocols":["Locaware"],"axes":[{"param":"bloom-bits","values":[4]}]}' 'bloom-bits 4 is below 8'
refused '{"name":"shares","queries":40,"protocols":["Dicas"],"base":{"files":10},"axes":[{"param":"files-per-peer","values":[11]}]}' 'files-per-peer 11 exceeds files 10'

# Observability: the runtime report and the Prometheus dump render end to
# end. The locks (golden byte-identity with an Observer attached, the
# byte-for-byte report/dump golden, the shared-registry sum, a scrape
# racing a sweep, the instrumented zero-alloc gossip round) run in the test
# suite, with and without -race.
step observability
"$exp" -fig 4 -peers 100 -warmup 40 -queries 120 -stats | tee "$tmp/stats-smoke.log"
grep -q 'protocol_queries_submitted_total' "$tmp/stats-smoke.log"
grep -q 'queries submitted' "$tmp/stats-smoke.log"

# Tracing: the flight recorder end to end, and the Perfetto export must
# parse with at least one peer track and one span; a keep-all Flooding run
# overflows a 100-event per-query cap (a flooding query emits hundreds) and
# must say so; a churn-waves run prints its four phase entries inline.
# Recorder inertness against an untraced twin, the keep-all oracle and the
# per-cell exemplars run in the test suite.
step tracing
"$trace" -peers 120 -warmup 40 -queries 200 -slowest 3 -keep-failed -trace-out "$tmp/perfetto.json" | tee "$tmp/trace-smoke.log"
grep -q 'submit@' "$tmp/trace-smoke.log"
python3 - "$tmp/perfetto.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
evs = doc["traceEvents"]
assert doc["displayTimeUnit"] == "ms"
assert any(e["ph"] == "M" and e["name"] == "thread_name" for e in evs), "no peer track"
assert any(e["ph"] == "X" for e in evs), "no spans"
EOF
"$trace" -protocol Flooding -peers 200 -queries 40 -max-events 100 > "$tmp/trace-cut.log"
grep -q 'events dropped; raise -max-events' "$tmp/trace-cut.log"
"$trace" -scenario churn-waves -queries 40 > "$tmp/trace-phases.log"
test "$(grep -c -- '------ phase .*scenario=churn-waves' "$tmp/trace-phases.log")" -eq 4

# Campaign resume: the 2x2x2 golden grid run in-process, then checkpointed;
# one checkpoint file is deleted and another truncated, and the re-run must
# restore the two intact cells, name the damaged file, recompute the rest
# and export a cells.csv byte-identical to the in-process run. A re-run
# restores all 4 cells. Then one digit of a mean is edited, which leaves
# valid JSON: the resume must name the file, re-run that cell and still
# export the in-process bytes.
step campaign resume
cat > "$tmp/tiny.json" <<'EOF'
{
  "name": "tiny",
  "warmup": 40,
  "queries": 120,
  "trials": 2,
  "protocols": ["Dicas", "Locaware"],
  "scenario": "churn-waves",
  "axes": [
    {"param": "peers", "values": [60, 90]},
    {"param": "cache-filenames", "values": [5, 50]}
  ]
}
EOF
ckpt=$tmp/camp-ckpt
"$exp" -sweep "$tmp/tiny.json" -out "$tmp/camp-inproc"
"$exp" -sweep "$tmp/tiny.json" -checkpoint "$ckpt"
rm "$ckpt/cell_000001.json"
head -c 200 "$ckpt/cell_000002.json" > "$tmp/cell-truncated" && mv "$tmp/cell-truncated" "$ckpt/cell_000002.json"
"$exp" -sweep "$tmp/tiny.json" -checkpoint "$ckpt" -out "$tmp/camp-resume" | tee "$tmp/camp-resume.log"
grep -q "resumed 2/4 cells" "$tmp/camp-resume.log"
grep -q "campaign warning: checkpoint cell_000002.json" "$tmp/camp-resume.log"
diff "$tmp/camp-inproc/cells.csv" "$tmp/camp-resume/cells.csv"
"$exp" -sweep "$tmp/tiny.json" -checkpoint "$ckpt" | tee "$tmp/camp-resume2.log"
grep -q "resumed 4/4 cells" "$tmp/camp-resume2.log"
grep -q '"Mean":0.5625' "$ckpt/cell_000001.json"
sed -i 's/"Mean":0.5625/"Mean":0.5626/' "$ckpt/cell_000001.json"
"$exp" -sweep "$tmp/tiny.json" -checkpoint "$ckpt" -out "$tmp/camp-edited" | tee "$tmp/camp-edited.log"
grep -q "resumed 3/4 cells" "$tmp/camp-edited.log"
grep -q "campaign warning: checkpoint cell_000001.json: cell content does not match its SHA-256" "$tmp/camp-edited.log"
diff "$tmp/camp-inproc/cells.csv" "$tmp/camp-edited/cells.csv"

step "all CLI smokes passed"
