#!/usr/bin/env bash
# CLI smokes: drive every subcommand of the locaware command end to end on
# tiny worlds. CI runs this script, and so does anyone verifying a change by
# hand (`./ci.sh` from anywhere in the repository; under a minute
# on one core). The determinism and golden locks live in the test suite;
# these steps catch a broken command-line surface. Scratch files go to a
# temporary directory that is removed on exit.
set -euo pipefail
cd "$(dirname "$0")"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/locaware" ./cmd/locaware
cli=$tmp/locaware
step() { printf '\n== %s\n' "$*"; }

# Single run: a -json result must parse and carry the headline keys, a
# churning run must finish, the world flags are the sweep parameters (a run
# through three of them must finish, an old spelling is gone), and a degree
# no overlay is built at, the deleted Locaware-LR protocol and a negative
# TTL or peer count are refused, naming what is wrong.
step single run
"$cli" run -peers 100 -warmup 40 -queries 120 -json > "$tmp/run.json"
python3 - "$tmp/run.json" <<'EOF'
import json, sys
res = json.load(open(sys.argv[1]))
for key in ("Protocol", "SuccessRate", "AvgMessagesPerQuery"):
    assert key in res, "no %s in the -json result" % key
EOF
"$cli" run -scenario steady-churn -peers 100 -warmup 40 -queries 120
"$cli" run -peers 100 -warmup 40 -queries 120 -bloom-bits 600 -cache-filenames 20 -query-rate 0.01
run_refused() { # the text the error must contain, then the flags
	if "$cli" run -peers 100 -warmup 0 -queries 10 "${@:2}" 2> "$tmp/run.err"; then
		echo "accepted: ${*:2}" >&2
		exit 1
	fi
	grep -qF -- "$1" "$tmp/run.err"
}
run_refused 'avg-degree 0.5 budgets 25 links for 100 peers, below the 99 links' -avg-degree 0.5
run_refused 'unknown protocol: "Locaware-LR"' -protocol Locaware-LR
run_refused 'ttl: value -1 must be positive' -ttl -1
run_refused 'peers: value -5 must be positive' -peers -5
run_refused 'flag provided but not defined: -bloombits' -bloombits 600

# Subcommands: each takes only its own flags, so a sweep flag given to fig
# is a flag-parser error (exit 2) that creates nothing, as are an unknown
# subcommand and a stray argument. An unknown figure is refused before any
# simulation runs (the paper-scale trials would take far longer than the
# timeout), and a budget the campaign cannot run is refused naming the
# value. A world flag given to sweep beats a spec that pins the parameter:
# a spec pinning ttl 7 run with -ttl 3 must export the cells of one pinning
# ttl 3, and differ without the flag.
step subcommands
exits2() { # the text stderr must contain, then the arguments
	if "$cli" "${@:2}" > "$tmp/cli.out" 2> "$tmp/cli.err"; then
		echo "accepted: ${*:2}" >&2
		exit 1
	else
		test $? -eq 2
	fi
	grep -qF -- "$1" "$tmp/cli.err"
}
exits2 'flag provided but not defined: -checkpoint' fig 2 -checkpoint "$tmp/no-ckpt"
test ! -e "$tmp/no-ckpt"
exits2 'usage: locaware run|fig|scenario|sweep|trace' bogus
exits2 'unexpected argument "extra"' run extra
if timeout 5 "$cli" fig 7 -trials 64 > "$tmp/fig7.out" 2> "$tmp/fig7.err"; then
	echo "accepted: fig 7" >&2
	exit 1
fi
grep -qF 'unknown figure "7": want 2, 3, 4 or all' "$tmp/fig7.err"
test ! -s "$tmp/fig7.out"
if "$cli" sweep ttl-sweep -queries 0 > /dev/null 2> "$tmp/cli.err"; then
	echo "accepted: sweep ttl-sweep -queries 0" >&2
	exit 1
fi
grep -qF 'queries 0 must be positive' "$tmp/cli.err"
pin() { echo '{"name":"pin","warmup":20,"queries":60,"protocols":["Dicas","Locaware"],"base":{"peers":80,"ttl":'"$1"'},"axes":[{"param":"cache-filenames","values":[5,50]}]}' > "$tmp/pin$1.json"; }
pin 7
pin 3
"$cli" sweep "$tmp/pin7.json" -ttl 3 -out "$tmp/pin7-ttl3" > /dev/null
"$cli" sweep "$tmp/pin3.json" -out "$tmp/pin3" > /dev/null
"$cli" sweep "$tmp/pin7.json" -out "$tmp/pin7" > /dev/null
cmp "$tmp/pin7-ttl3/cells.csv" "$tmp/pin3/cells.csv"
if cmp -s "$tmp/pin7-ttl3/cells.csv" "$tmp/pin7/cells.csv"; then
	echo "-ttl 3 did not reach the spec's base" >&2
	exit 1
fi

# Scenario: registry listing plus a tiny flashcrowd run with per-phase
# tables.
step scenario
"$cli" scenario list
"$cli" scenario flashcrowd -peers 120 -warmup 50 -queries 200

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
"$cli" sweep list
"$cli" sweep churn-sweep -peers 100 -warmup 40 -queries 160 -trials 2 -out "$tmp/sweep-smoke"
test -s "$tmp/sweep-smoke/cells.csv" && test -s "$tmp/sweep-smoke/fig_success.csv"
"$cli" sweep bloom-sweep -peers 100 -warmup 40 -queries 160 -trials 2 -out "$tmp/bloom-smoke" | tee "$tmp/bloom-smoke.log"
grep -q -- '-- Bloom gossip traffic (kbit)' "$tmp/bloom-smoke.log"
grep -q '^bloom-bits,Locaware,Locaware_ci95' "$tmp/bloom-smoke/fig_ctlkbits.csv"
refused() { # spec JSON, then the text the error must contain
	echo "$1" > "$tmp/refused.json"
	if "$cli" sweep "$tmp/refused.json" 2> "$tmp/refused.err"; then
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
"$cli" fig 4 -peers 100 -warmup 40 -queries 120 -stats | tee "$tmp/stats-smoke.log"
grep -q 'protocol_queries_submitted_total' "$tmp/stats-smoke.log"
grep -q 'queries submitted' "$tmp/stats-smoke.log"

# Tracing: the flight recorder end to end, and the Perfetto export must
# parse with at least one peer track and one span; a keep-all Flooding run
# overflows a 100-event per-query cap (a flooding query emits hundreds) and
# must say so; a churn-waves run prints its four phase entries inline; and
# trace takes every world flag, a TTL and a cache size among them. The
# records table prints one row per measured query. A negative recorder
# bound is refused (exit 1) naming the policy field, not read as another
# mode. Recorder inertness against an untraced twin, the keep-all oracle and
# the per-cell exemplars run in the test suite.
step tracing
"$cli" trace -peers 120 -warmup 40 -queries 200 -slowest 3 -keep-failed -trace-out "$tmp/perfetto.json" | tee "$tmp/trace-smoke.log"
grep -q 'submit@' "$tmp/trace-smoke.log"
python3 - "$tmp/perfetto.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
evs = doc["traceEvents"]
assert doc["displayTimeUnit"] == "ms"
assert any(e["ph"] == "M" and e["name"] == "thread_name" for e in evs), "no peer track"
assert any(e["ph"] == "X" for e in evs), "no spans"
EOF
"$cli" trace -protocol Flooding -peers 200 -queries 40 -max-events 100 > "$tmp/trace-cut.log"
grep -q 'events dropped; raise -max-events' "$tmp/trace-cut.log"
"$cli" trace -scenario churn-waves -queries 40 > "$tmp/trace-phases.log"
test "$(grep -c -- '------ phase .*scenario=churn-waves' "$tmp/trace-phases.log")" -eq 4
"$cli" trace -ttl 3 -cache-filenames 20 -queries 5 > "$tmp/trace-world.log"
grep -q '^5 of 5 retained traces shown' "$tmp/trace-world.log"
"$cli" trace -records -queries 20 > "$tmp/trace-records.log"
grep -q '^query  success  msgs' "$tmp/trace-records.log"
test "$(grep -cE '^[0-9]+ +(true|false) ' "$tmp/trace-records.log")" -eq 20
exits1() { # the text stderr must contain, then the arguments
	if "$cli" "${@:2}" > /dev/null 2> "$tmp/cli.err"; then
		echo "accepted: ${*:2}" >&2
		exit 1
	else
		test $? -eq 1
	fi
	grep -qF -- "$1" "$tmp/cli.err"
}
exits1 'TracePolicy.SlowestN -3 must be non-negative' trace -slowest -3
exits1 'TracePolicy.MaxEventsPerQuery -5 must be non-negative' trace -max-events -5
exits1 'TracePolicy.MinHops -2 must be non-negative' trace -min-hops -2 -keep-failed
exits1 'TracePolicy.SlowestN -1 must be non-negative' fig 2 -flight-recorder -1 -peers 100 -warmup 0 -queries 10

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
"$cli" sweep "$tmp/tiny.json" -out "$tmp/camp-inproc"
"$cli" sweep "$tmp/tiny.json" -checkpoint "$ckpt"
rm "$ckpt/cell_000001.json"
head -c 200 "$ckpt/cell_000002.json" > "$tmp/cell-truncated" && mv "$tmp/cell-truncated" "$ckpt/cell_000002.json"
"$cli" sweep "$tmp/tiny.json" -checkpoint "$ckpt" -out "$tmp/camp-resume" | tee "$tmp/camp-resume.log"
grep -q "resumed 2/4 cells" "$tmp/camp-resume.log"
grep -q "campaign warning: checkpoint cell_000002.json" "$tmp/camp-resume.log"
diff "$tmp/camp-inproc/cells.csv" "$tmp/camp-resume/cells.csv"
"$cli" sweep "$tmp/tiny.json" -checkpoint "$ckpt" | tee "$tmp/camp-resume2.log"
grep -q "resumed 4/4 cells" "$tmp/camp-resume2.log"
grep -q '"Mean":0.5625' "$ckpt/cell_000001.json"
sed -i 's/"Mean":0.5625/"Mean":0.5626/' "$ckpt/cell_000001.json"
"$cli" sweep "$tmp/tiny.json" -checkpoint "$ckpt" -out "$tmp/camp-edited" | tee "$tmp/camp-edited.log"
grep -q "resumed 3/4 cells" "$tmp/camp-edited.log"
grep -q "campaign warning: checkpoint cell_000001.json: cell content does not match its SHA-256" "$tmp/camp-edited.log"
diff "$tmp/camp-inproc/cells.csv" "$tmp/camp-edited/cells.csv"

step "all CLI smokes passed"
