package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"runtime"
	"runtime/debug"
	"testing"

	"github.com/p2prepro/locaware/internal/obs"
	"github.com/p2prepro/locaware/internal/protocol"
	"github.com/p2prepro/locaware/internal/scenario"
)

var updateLedger = flag.Bool("update", false, "rewrite testdata/ledger.json with the current rows")

const ledgerPath = "testdata/ledger.json"

// ledgerRow is one fixed-seed run's work: what it simulated (the digest,
// and the events, messages and queue pushes per query, which repeat
// exactly) and what it cost the host (allocations and bytes per query, and
// the live heap per peer once the world is built and once the run is over).
// Events and pushes are per query submitted, warm-up included; messages per
// measured query, as the collector counts them.
type ledgerRow struct {
	Name             string  `json:"name"`
	Digest           string  `json:"digest"`
	EventsPerQuery   float64 `json:"events_per_query"`
	MessagesPerQuery float64 `json:"messages_per_query"`
	PushesPerQuery   float64 `json:"pushes_per_query"`
	AllocsPerQuery   float64 `json:"allocs_per_query"`
	BytesPerQuery    float64 `json:"bytes_per_query"`
	HeapPerPeerBuilt float64 `json:"heap_bytes_per_peer_built"`
	HeapPerPeerRun   float64 `json:"heap_bytes_per_peer_run"`
}

// memSample returns the heap's live bytes after two collections (the
// second frees what sync.Pool victim caches held through the first), and
// the cumulative mallocs and allocated bytes.
func memSample() (live, mallocs, total uint64) {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc, m.Mallocs, m.TotalAlloc
}

// ledgerRun measures one NewSimulation + RunMeasured.
func ledgerRun(name string, b protocol.Behavior, peers, warmup, measured int) ledgerRow {
	cfg := DefaultConfig()
	cfg.Seed = 1
	cfg.NumPeers = peers
	live0, _, _ := memSample()
	s := NewSimulation(cfg, b)
	live1, m1, t1 := memSample()
	gc := debug.SetGCPercent(-1)
	res := s.RunMeasured(warmup, measured)
	debug.SetGCPercent(gc)
	live2, m2, t2 := memSample()
	n := float64(warmup + measured)
	row := ledgerRow{
		Name:             name,
		Digest:           res.Digest(),
		EventsPerQuery:   float64(res.Events) / n,
		MessagesPerQuery: float64(res.Collector.TotalMessages()) / float64(measured),
		PushesPerQuery:   float64(s.Engine.Scheduled()) / n,
		AllocsPerQuery:   float64(m2-m1) / n,
		BytesPerQuery:    float64(t2-t1) / n,
		HeapPerPeerBuilt: float64(int64(live1)-int64(live0)) / float64(peers),
		HeapPerPeerRun:   float64(int64(live2)-int64(live0)) / float64(peers),
	}
	runtime.KeepAlive(s)
	runtime.KeepAlive(res)
	return row
}

// ledgerGrid measures a 2 × 2 RunGrid on one worker: 200 and 400 peers under
// steady-churn at the sweeps' accelerated arrival rate, Locaware and
// Flooding in each. Its digest hashes the four runs' digests in sink order,
// and its allocations and bytes include the four world builds. A grid frees
// each world after its last run, so the heap columns come from the same four
// runs cut and run directly, all held at once, per peer of the two worlds.
func ledgerGrid() ledgerRow {
	const warmup, measured = 60, 240
	churn, _ := scenario.Lookup("steady-churn")
	var cfgs []Config
	peers := 0
	for _, n := range []int{200, 400} {
		cfg := DefaultConfig()
		cfg.Seed = 1
		cfg.NumPeers = n
		cfg.Gen.RatePerPeer = 0.01
		cfg.Scenario = churn
		cfg.Obs = obs.NewRegistry()
		cfgs = append(cfgs, cfg)
		peers += n
	}
	behaviors := []protocol.Behavior{protocol.Locaware{}, protocol.Flooding{}}

	live0, _, _ := memSample()
	var sims []*Simulation
	for _, cfg := range cfgs {
		w := NewWorld(cfg, len(behaviors))
		for _, b := range behaviors {
			sims = append(sims, w.Simulation(b))
		}
	}
	live1, _, _ := memSample()
	for _, s := range sims {
		s.RunMeasured(warmup, measured)
	}
	live2, _, _ := memSample()
	runtime.KeepAlive(sims)
	sims = nil

	_, m0, t0 := memSample()
	var runs []*RunResult
	gc := debug.SetGCPercent(-1)
	RunGrid(cfgs, behaviors, 1, warmup, measured, 1, func(_, _ int, rs []*RunResult) { runs = append(runs, rs...) })
	debug.SetGCPercent(gc)
	_, m1, t1 := memSample()
	h := sha256.New()
	var events, messages, pushes uint64
	for _, r := range runs {
		h.Write([]byte(r.Digest()))
		events += r.Events
		messages += r.Collector.TotalMessages()
		pushes += r.Runtime.EventsScheduled
	}
	n := float64(len(runs) * (warmup + measured))
	return ledgerRow{
		Name:             "grid 2x2 steady-churn",
		Digest:           hex.EncodeToString(h.Sum(nil)),
		EventsPerQuery:   float64(events) / n,
		MessagesPerQuery: float64(messages) / float64(len(runs)*measured),
		PushesPerQuery:   float64(pushes) / n,
		AllocsPerQuery:   float64(m1-m0) / n,
		BytesPerQuery:    float64(t1-t0) / n,
		HeapPerPeerBuilt: float64(int64(live1)-int64(live0)) / float64(peers),
		HeapPerPeerRun:   float64(int64(live2)-int64(live0)) / float64(peers),
	}
}

// TestWorkLedger recomputes the work ledger, four fixed-seed runs, and
// holds each against testdata/ledger.json: a digest, or events, messages
// or pushes per query that differ at all fail it, and so do allocations,
// bytes per query or heap bytes per peer more than 1 % above the row.
// Within the test a run has one P and no GC, which makes every count
// repeat. -update rewrites the file; a change that moves a row shows the
// old and new rows in CHANGES.md.
func TestWorkLedger(t *testing.T) {
	skipAllocBudget(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rows := []ledgerRow{
		ledgerRun("Locaware 2000 peers", protocol.Locaware{}, 2000, 500, 2000),
		ledgerRun("Flooding 2000 peers", protocol.Flooding{}, 2000, 0, 25),
		ledgerRun("Locaware 20000 peers", protocol.Locaware{}, 20000, 1000, 4000),
		ledgerGrid(),
	}
	for _, r := range rows {
		t.Logf("%+v", r)
	}
	if *updateLedger {
		data, err := json.MarshalIndent(rows, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(ledgerPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	var want []ledgerRow
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(rows) {
		t.Fatalf("%s holds %d rows, the ledger computes %d", ledgerPath, len(want), len(rows))
	}
	for i, got := range rows {
		w := want[i]
		if got.Name != w.Name || got.Digest != w.Digest || got.EventsPerQuery != w.EventsPerQuery ||
			got.MessagesPerQuery != w.MessagesPerQuery || got.PushesPerQuery != w.PushesPerQuery {
			t.Errorf("%s: simulated work moved\n got %+v\nwant %+v", w.Name, got, w)
			continue
		}
		for _, c := range []struct {
			what       string
			got, bound float64
		}{
			{"allocs/query", got.AllocsPerQuery, 1.01 * w.AllocsPerQuery},
			{"bytes/query", got.BytesPerQuery, 1.01 * w.BytesPerQuery},
			{"heap bytes/peer built", got.HeapPerPeerBuilt, 1.01 * w.HeapPerPeerBuilt},
			{"heap bytes/peer run", got.HeapPerPeerRun, 1.01 * w.HeapPerPeerRun},
		} {
			if c.got > c.bound {
				t.Errorf("%s: %s %.3f, bound %.3f", w.Name, c.what, c.got, c.bound)
			}
		}
	}
}
