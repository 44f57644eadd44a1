package main

import (
	"math/rand"
	"runtime"
	"sort"
	"time"

	"github.com/p2prepro/locaware/benchmark/naive"
	"github.com/p2prepro/locaware/internal/bloom"
	"github.com/p2prepro/locaware/internal/cache"
	"github.com/p2prepro/locaware/internal/core"
	"github.com/p2prepro/locaware/internal/keywords"
	"github.com/p2prepro/locaware/internal/metrics"
	"github.com/p2prepro/locaware/internal/netmodel"
	"github.com/p2prepro/locaware/internal/overlay"
	"github.com/p2prepro/locaware/internal/protocol"
	"github.com/p2prepro/locaware/internal/sim"
	wl "github.com/p2prepro/locaware/internal/workload"
)

// parts is a world assembled layer by layer, the way core.NewSimulation
// does it (same named RNG streams, so the same world), with each layer's
// construction timed apart.
type parts struct {
	model     *netmodel.Model
	graph     *overlay.Graph
	catalog   *wl.Catalog
	placement *wl.Placement
	gen       *wl.Generator

	netmodelS, overlayS, workloadS, protocolS float64
}

func buildParts(wd world) *parts {
	cfg := wd.cfg
	rng := sim.NewRNG(cfg.Seed)
	p := &parts{}

	t := time.Now()
	pts := netmodel.Place(cfg.NumPeers, cfg.Placement, rng.Stream("topology"))
	p.model = netmodel.NewModel(pts, cfg.Placement.Side, cfg.Latency, cfg.Seed)
	lm := netmodel.NewLandmarks(cfg.Landmarks, cfg.Placement.Side, rng.Stream("landmarks"))
	locator := netmodel.NewLocator(p.model, lm)
	p.netmodelS = time.Since(t).Seconds()

	t = time.Now()
	p.graph = overlay.BuildRandom(cfg.NumPeers,
		overlay.BuildConfig{AvgDegree: cfg.AvgDegree, MaxDegree: cfg.MaxDegree}, rng.Stream("overlay"))
	p.overlayS = time.Since(t).Seconds()

	t = time.Now()
	p.catalog = wl.NewCatalog(cfg.Catalog, rng.Stream("catalog"))
	p.placement = wl.NewPlacement(cfg.NumPeers, cfg.FilesPerPeer, p.catalog, rng.Stream("placement"))
	providers := p.placement.Providers()
	targets := make([]wl.FileID, 0, len(providers))
	for fid := range providers {
		targets = append(targets, fid)
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })
	p.gen = wl.NewGeneratorOver(cfg.NumPeers, cfg.Gen, p.catalog, targets, rng.Stream("workload"))
	p.workloadS = time.Since(t).Seconds()

	t = time.Now()
	net := protocol.NewNetwork(sim.NewEngine(), p.graph, p.model, locator, wd.behavior, cfg.Protocol,
		rng.Stream("gid"), rng.Stream("protocol"))
	for peer := 0; peer < cfg.NumPeers; peer++ {
		for _, fid := range p.placement.Files(peer) {
			net.Node(overlay.PeerID(peer)).AddFile(p.catalog.File(fid))
		}
	}
	p.protocolS = time.Since(t).Seconds()
	return p
}

// buildCost builds the world whole, as users do, and reports the wall time
// and the live heap it leaves behind.
func buildCost(wd world) (seconds float64, heapBytes float64) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t := time.Now()
	s := core.NewSimulation(wd.cfg, wd.behavior)
	seconds = time.Since(t).Seconds()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	runtime.KeepAlive(s)
	return seconds, float64(m1.HeapAlloc) - float64(m0.HeapAlloc)
}

// buildSpans splits set-up time by layer. The residual is what
// core.NewSimulation spends outside the four layers (scenario attach,
// shard validation), plus timing noise; it may come out slightly negative.
func buildSpans(v map[string]float64, wd world) {
	const samples = 5
	var layer [4][samples]float64
	var whole, heap [samples]float64
	for i := range whole {
		runtime.GC()
		p := buildParts(wd)
		layer[0][i], layer[1][i], layer[2][i], layer[3][i] = p.netmodelS, p.overlayS, p.workloadS, p.protocolS
		whole[i], heap[i] = buildCost(wd)
	}
	residual := median(whole[:])
	for i, name := range []string{"netmodel.build_s", "overlay.build_s", "workload.build_s", "protocol.build_s"} {
		v[name] = median(layer[i][:])
		residual -= v[name]
	}
	v["core.build_residual_s"] = residual
	v["core.heap_bytes_per_peer"] = median(heap[:]) / float64(wd.cfg.NumPeers)
}

// scaleLadder builds (never runs) Locaware worlds at 2k, 20k and 100k
// peers: where set-up time and bytes per peer go as the overlay grows.
func scaleLadder(v map[string]float64, seed int64) {
	for _, step := range []struct {
		name  string
		peers int
	}{{"2k", 2000}, {"20k", 20000}, {"100k", 100000}} {
		cfg := core.DefaultConfig()
		cfg.Seed = seed
		cfg.NumPeers = step.peers
		seconds, heap := buildCost(world{cfg: cfg, behavior: protocol.Locaware{}})
		v["core.build_s."+step.name] = seconds
		v["core.heap_bytes_per_peer."+step.name] = heap / float64(step.peers)
	}
	runtime.GC()
}

// timeOps times fn, which performs ops operations, three times and
// returns the median cost of one operation in nanoseconds.
func timeOps(ops int, fn func()) float64 {
	var ns [3]float64
	for i := range ns {
		t := time.Now()
		fn()
		ns[i] = float64(time.Since(t)) / float64(ops)
	}
	return median(ns[:])
}

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink int

// nopEvent is a typed event that does nothing: what remains is the
// scheduler's own cost.
type nopEvent struct{}

func (nopEvent) Fire(*sim.Engine) {}

// repostEvent re-posts itself after the next delay of a table until the
// shared budget runs out, holding the queue at a standing depth.
type repostEvent struct {
	delays []sim.Time
	next   int
	budget *int
}

func (ev *repostEvent) Fire(e *sim.Engine) {
	if *ev.budget <= 0 {
		return
	}
	*ev.budget--
	ev.next++
	e.PostEvent(ev.delays[ev.next%len(ev.delays)], ev)
}

// floodProbe reproduces a flooded query as the queue sees it: every
// delivered message schedules its own forwards one link delay out, seven
// hops deep, so a burst of ~1200 deliveries builds up and drains while the
// next Poisson arrival is still to come.
type floodProbe struct {
	delays []sim.Time
	// gaps are the idle times between arrivals; some are long enough for
	// the queue to drain completely, which is when it re-derives its
	// geometry from whatever is left.
	gaps []sim.Time
	// finalizeAfter is how far ahead each arrival parks its finalisation.
	finalizeAfter sim.Time
	arrived       int
	next          int // cursor into delays
	free          []*floodHop
}

// floodFanout is the forward count per hop depth (ttl 7 down to 1): about
// the 2.6 neighbours a message reaches on the paper's degree-3 overlay.
var floodFanout = [8]int{0, 2, 2, 3, 2, 3, 3, 3}

type floodHop struct {
	p   *floodProbe
	ttl int
}

func (p *floodProbe) post(e *sim.Engine, ttl int) {
	for i := 0; i < floodFanout[ttl]; i++ {
		h := &floodHop{p: p}
		if n := len(p.free); n > 0 {
			h, p.free = p.free[n-1], p.free[:n-1]
		}
		h.ttl = ttl - 1
		p.next++
		e.PostEvent(p.delays[p.next%len(p.delays)], h)
	}
}

func (h *floodHop) Fire(e *sim.Engine) {
	h.p.post(e, h.ttl)
	h.p.free = append(h.p.free, h)
}

// Fire is one query arrival: the first forwards, and the query's
// finalisation far beyond them.
func (p *floodProbe) Fire(e *sim.Engine) {
	p.post(e, 7)
	e.PostEvent(p.finalizeAfter, nopEvent{})
	if p.arrived++; p.arrived < len(p.gaps) {
		e.PostEvent(p.gaps[p.arrived], p)
	}
}

// linkDelays samples the delays protocol messages travel with in this
// world: one-way link latency plus the per-hop processing delay.
func linkDelays(p *parts, wd world, n int) []sim.Time {
	delays := make([]sim.Time, 0, n)
	for peer := 0; len(delays) < n; peer = (peer + 1) % wd.cfg.NumPeers {
		for _, nb := range p.graph.Neighbors(overlay.PeerID(peer)) {
			delays = append(delays, sim.FromMillis(p.model.OneWay(peer, int(nb)))+wd.cfg.Protocol.ProcessingDelay)
		}
	}
	return delays[:n]
}

// probeLayers calls each layer directly at the workload's shape: inputs
// come from the workload's first world, operation counts are fixed.
func probeLayers(v map[string]float64, wd world) {
	p := buildParts(wd)
	cfg := wd.cfg
	r := rand.New(rand.NewSource(cfg.Seed))
	delays := linkDelays(p, wd, 4096)

	// Scheduler: a dense standing queue (the locaware-20k shape), sparse
	// bursts separated by idle gaps (the flood-2k shape), and a queue of
	// one, which leaves dispatch alone.
	const denseDepth, denseOps = 4096, 400_000
	v["sim.pushpop_ns.dense"] = timeOps(denseOps+denseDepth, func() {
		eng, budget := sim.NewEngine(), denseOps
		for i := 0; i < denseDepth; i++ {
			eng.PostEvent(delays[i], &repostEvent{delays: delays, next: i, budget: &budget})
		}
		eng.Run(0)
	})
	// Poisson arrivals at the paper's rate over 2000 peers, whatever the
	// workload's own size: this probe is the flood-2k queue shape.
	gaps := make([]sim.Time, 150)
	for i := range gaps {
		gaps[i] = sim.FromSeconds(r.ExpFloat64() / (wl.DefaultGen().RatePerPeer * 2000))
	}
	var sparseEvents uint64
	sparseNs := timeOps(1, func() {
		eng := sim.NewEngine()
		eng.PostEvent(0, &floodProbe{delays: delays, gaps: gaps, finalizeAfter: cfg.Protocol.FinalizeAfter})
		sparseEvents = eng.Run(0)
	})
	v["sim.pushpop_ns.sparse"] = sparseNs / float64(sparseEvents)
	const dispatchOps = 300_000
	v["sim.dispatch_ns"] = timeOps(dispatchOps+1, func() {
		eng, budget := sim.NewEngine(), dispatchOps
		eng.PostEvent(0, &repostEvent{delays: []sim.Time{sim.Millisecond}, budget: &budget})
		eng.Run(0)
	})

	const pairs = 4096
	as, bs := make([]int, pairs), make([]int, pairs)
	for i := range as {
		as[i], bs[i] = r.Intn(cfg.NumPeers), r.Intn(cfg.NumPeers)
	}
	v["netmodel.rtt_ns"] = timeOps(1_000_000, func() {
		sum := 0.0
		for i := 0; i < 1_000_000; i++ {
			sum += p.model.RTT(as[i%pairs], bs[i%pairs])
		}
		sink += int(sum)
	})
	v["overlay.neighbors_ns"] = timeOps(1_000_000, func() {
		for i := 0; i < 1_000_000; i++ {
			sink += len(p.graph.Neighbors(overlay.PeerID(as[i%pairs])))
		}
	})

	// Bloom filters at the protocol's geometry, holding a full response
	// index's worth of keywords.
	pool := p.catalog.Pool()
	words := make([]string, 1024)
	for i := range words {
		words[i] = string(pool.Keyword(r.Intn(pool.Size())))
	}
	older := bloom.New(cfg.Protocol.BloomBits, cfg.Protocol.BloomK)
	newer := bloom.New(cfg.Protocol.BloomBits, cfg.Protocol.BloomK)
	for i, kw := range words[:150] {
		newer.Add(kw)
		if i < 100 {
			older.Add(kw)
		}
	}
	v["bloom.test_ns"] = timeOps(1_000_000, func() {
		for i := 0; i < 1_000_000; i++ {
			if newer.Test(words[i%len(words)]) {
				sink++
			}
		}
	})
	v["bloom.add_ns"] = timeOps(1_000_000, func() {
		f := bloom.New(cfg.Protocol.BloomBits, cfg.Protocol.BloomK)
		for i := 0; i < 1_000_000; i++ {
			f.Add(words[i%len(words)])
		}
	})
	v["bloom.diff_ns"] = timeOps(100_000, func() {
		var buf []uint32
		for i := 0; i < 100_000; i++ {
			d, err := bloom.DiffFiltersInto(older, newer, buf)
			if err != nil {
				panic(err) // equal geometry by construction
			}
			buf = d.Flipped[:0]
			sink += len(d.Flipped)
		}
	})

	// Response index at the protocol's bounds: puts cycle through more
	// filenames than fit, so they evict; lookups mix hits and misses.
	files := make([]keywords.Filename, 512)
	queries := make([]keywords.Query, len(files))
	for i := range files {
		files[i] = p.catalog.File(wl.FileID(r.Intn(p.catalog.Size())))
		queries[i] = keywords.ExtractQuery(files[i], r)
	}
	cacheCfg := wd.behavior.CacheConfig(cfg.Protocol.Cache)
	v["cache.put_ns"] = timeOps(300_000, func() {
		idx := cache.New(cacheCfg, nil)
		for i := 0; i < 300_000; i++ {
			idx.Put(files[i%len(files)], overlay.PeerID(as[i%pairs]), 0, sim.Time(i))
		}
	})
	full := cache.New(cacheCfg, nil)
	for i := 0; i < cacheCfg.MaxFilenames; i++ {
		full.Put(files[i], overlay.PeerID(as[i]), 0, 0)
	}
	v["cache.lookup_ns"] = timeOps(200_000, func() {
		for i := 0; i < 200_000; i++ {
			sink += len(full.Lookup(queries[i%len(queries)], 0))
		}
	})

	v["workload.next_ns"] = timeOps(300_000, func() {
		for i := 0; i < 300_000; i++ {
			sink += p.gen.Next().Requester
		}
	})
	v["workload.match_ns"] = timeOps(300_000, func() {
		for i := 0; i < 300_000; i++ {
			sink += len(p.catalog.MatchingFiles(queries[i%len(queries)]))
		}
	})
	v["metrics.record_ns"] = timeOps(1_000_000, func() {
		col := metrics.NewCollector()
		for i := 0; i < 1_000_000; i++ {
			col.Record(metrics.QueryRecord{Messages: i & 63, Success: i&1 == 0, DownloadRTT: 80, Hops: 3})
		}
		sink += col.Submitted()
	})
}

// naiveQueries is how many queries the naive baseline floods.
const naiveQueries = 40

// naiveFlood runs the naive flooding simulator (container/heap, plain
// structs, no pools) over this world's own overlay, link delays, file
// placement and the first nq queries of its stream, so the ledger states
// what the calendar queue, arena and pools buy — or cost — per delivered
// message.
func naiveFlood(v map[string]float64, wd world, nq int) {
	p := buildParts(wd)
	cfg := wd.cfg
	n := cfg.NumPeers
	adj := make([][]int32, n)
	for peer := range adj {
		for _, nb := range p.graph.Neighbors(overlay.PeerID(peer)) {
			adj[peer] = append(adj[peer], int32(nb))
		}
	}
	queries := make([]naive.Query, nq)
	for i := range queries {
		ev := p.gen.Next()
		holders := make(map[int32]bool)
		for peer := 0; peer < n; peer++ {
			for _, fid := range p.placement.Files(peer) {
				if p.catalog.File(fid).Matches(ev.Q) {
					holders[int32(peer)] = true
				}
			}
		}
		queries[i] = naive.Query{At: int64(ev.At), Origin: int32(ev.Requester), Holders: holders}
	}
	s := naive.Sim{
		Adj: adj,
		TTL: cfg.Protocol.TTL,
		Delay: func(a, b int32) int64 {
			return int64(sim.FromMillis(p.model.OneWay(int(a), int(b))) + cfg.Protocol.ProcessingDelay)
		},
	}
	runtime.GC()
	t := time.Now()
	events := s.Run(queries)
	wall := time.Since(t)
	v["naive.flood.events"] = float64(events)
	v["naive.flood.ns_per_event"] = float64(wall) / float64(events)
}
