// Package metrics implements the measurement pipeline behind §5's three
// performance metrics:
//
//   - download distance — average RTT from requester to the chosen provider;
//   - search traffic — total messages produced by a query;
//   - success rate — satisfied queries / submitted queries;
//
// plus three secondary ones (same-locality rate, cache-hit rate, hops to
// the first hit). This package is the one place that spells the metric set
// out: one accumulator (acc) folds query records, one sealed-window type
// (PhaseWindow) carries the six values over a span of the query stream, one
// cross-trial type (PhaseStats) and one aggregator (AggregatePhases) pool
// windows over replicated trials, and one ordered table (Metrics) names
// them for the exporters. The whole run, a figure checkpoint window and a
// scenario phase differ only in their span: the run is the window
// (0, submitted], a checkpoint window is a nameless phase.
//
// The collector is a streaming accumulator: every window is a
// constant-size set of running sums, sealed incrementally as the query
// count crosses its mark. Collector state is therefore O(checkpoints +
// phases), not O(queries), which is what lets a million-query run fit in
// memory. Full per-query records are available as an opt-in
// (CollectorConfig.RetainRecords) for trace tooling; the streaming outputs
// are bit-identical to a replay over the retained records because both
// accumulate the same float64 sums in the same submission order.
package metrics

import "fmt"

// QueryRecord is the outcome of one query.
type QueryRecord struct {
	// ID is the query's sequence number (1-based submission order).
	ID uint64
	// Messages is the number of overlay messages the query produced
	// (forwards + responses).
	Messages int
	// Success reports whether the query was satisfied.
	Success bool
	// DownloadRTT is the RTT in ms from requester to the chosen provider;
	// meaningful only when Success is true.
	DownloadRTT float64
	// SameLocality reports whether the chosen provider shared the
	// requester's locId.
	SameLocality bool
	// FromCache reports whether the hit came from a response index rather
	// than a peer's shared storage; meaningful only when Success is true.
	FromCache bool
	// Hops is the overlay hop count to the first hit (0 when unanswered).
	Hops int
}

// CollectorConfig configures the measurement plane of one run.
type CollectorConfig struct {
	// Checkpoints is the ascending list of cumulative query counts at which
	// figure windows are sealed (Windows). Without checkpoints only the
	// whole-run window is available.
	Checkpoints []int
	// Phases segments the query stream into named contiguous spans
	// (scenario phases): each mark closes the span (prevEnd, End] under its
	// name (PhaseWindows). Ends must be ascending and positive.
	Phases []PhaseMark
	// RetainRecords keeps the full per-query record stream in memory, so
	// Records() works. This is the full-fidelity trace mode; memory grows
	// O(queries).
	RetainRecords bool
}

// PhaseMark names the query count at which a scenario phase ends.
type PhaseMark struct {
	// Name identifies the phase in per-phase reports.
	Name string
	// End is the cumulative query count closing the phase (inclusive).
	End int
}

// PhaseWindow is the full metric set over the queries in (Start, End] of
// the measured stream: a scenario phase, a figure checkpoint window (no
// name) or the whole run (no name, Start 0).
type PhaseWindow struct {
	// Name is the phase's name from the scenario spec.
	Name string
	// Start (exclusive) and End (inclusive) bound the window's cumulative
	// query counts; Queries is the number actually recorded in the span.
	Start, End, Queries int
	// The §5 figure metrics over the window.
	DownloadRTT      float64
	MessagesPerQuery float64
	SuccessRate      float64
	// The secondary metrics over the window, over successful queries only.
	SameLocalityRate float64
	CacheHitRate     float64
	AvgHops          float64
}

// acc is the constant-size accumulator of one window in progress. Sums are
// accumulated in submission order so sealed values are bit-identical to a
// replay over the same records.
type acc struct {
	queries   int
	messages  int
	successes int
	sameLoc   int
	fromCache int
	rttSum    float64
	hopsSum   float64
}

func (a *acc) add(r *QueryRecord) {
	a.queries++
	a.messages += r.Messages
	if r.Success {
		a.successes++
		a.rttSum += r.DownloadRTT
		a.hopsSum += float64(r.Hops)
		if r.SameLocality {
			a.sameLoc++
		}
		if r.FromCache {
			a.fromCache++
		}
	}
}

// window converts the accumulator into a sealed PhaseWindow.
func (a *acc) window(name string, start, end int) PhaseWindow {
	w := PhaseWindow{Name: name, Start: start, End: end, Queries: a.queries}
	if a.queries > 0 {
		w.MessagesPerQuery = float64(a.messages) / float64(a.queries)
		w.SuccessRate = float64(a.successes) / float64(a.queries)
	}
	if a.successes > 0 {
		w.DownloadRTT = a.rttSum / float64(a.successes)
		w.AvgHops = a.hopsSum / float64(a.successes)
		w.SameLocalityRate = float64(a.sameLoc) / float64(a.successes)
		w.CacheHitRate = float64(a.fromCache) / float64(a.successes)
	}
	return w
}

// grid seals one window per mark as the query count crosses it: cur
// accumulates the window in progress, sealed holds the closed ones.
type grid struct {
	marks  []PhaseMark
	sealed []PhaseWindow
	cur    acc
}

func newGrid(what string, marks []PhaseMark) grid {
	prev := 0
	for _, m := range marks {
		if m.End <= prev {
			// A misordered grid would silently corrupt every figure.
			panic(fmt.Sprintf("metrics: %s must be ascending and positive, got %v", what, marks))
		}
		prev = m.End
	}
	return grid{marks: marks, sealed: make([]PhaseWindow, 0, len(marks))}
}

// start and end are the cumulative counts the window in progress opens at
// and has reached: windows are contiguous from 0 and see every record until
// the last mark seals.
func (g *grid) start() int {
	if n := len(g.sealed); n > 0 {
		return g.sealed[n-1].End
	}
	return 0
}

func (g *grid) end() int { return g.start() + g.cur.queries }

// add folds a record into the window in progress and seals it when the
// count reaches the window's mark.
func (g *grid) add(r *QueryRecord) {
	next := len(g.sealed)
	if next == len(g.marks) {
		return
	}
	g.cur.add(r)
	if m := g.marks[next]; g.end() == m.End {
		g.sealed = append(g.sealed, g.cur.window(m.Name, g.start(), m.End))
		g.cur = acc{}
	}
}

// windows returns a copy of the sealed windows (the slice is live state
// and the run may seal more), plus a partial window ending at the recorded
// count when an unmet mark has queries behind it — a truncated run reports
// what it measured instead of dropping its tail. Nil without marks.
func (g *grid) windows() []PhaseWindow {
	if len(g.marks) == 0 {
		return nil
	}
	out := append(make([]PhaseWindow, 0, len(g.sealed)+1), g.sealed...)
	if g.cur.queries > 0 {
		out = append(out, g.cur.window(g.marks[len(g.sealed)].Name, g.start(), g.end()))
	}
	return out
}

// Collector accumulates query outcomes for one protocol run as O(1)
// streaming sums. It optionally retains full records (RetainRecords).
type Collector struct {
	cfg CollectorConfig

	// run accumulates the whole run; checkpoints and phases seal their
	// windows over the same stream.
	run         acc
	checkpoints grid
	phases      grid

	// records is populated only in RetainRecords mode.
	records []QueryRecord
}

// NewCollector returns an empty streaming collector with no checkpoint grid
// and no record retention: the whole-run metrics work in O(1) state, but
// Windows needs a grid (see NewCollectorWith).
func NewCollector() *Collector { return NewCollectorWith(CollectorConfig{}) }

// NewCollectorWith returns an empty collector for the given configuration.
// Checkpoints and phase marks must be ascending and positive; out-of-order
// entries panic.
func NewCollectorWith(cfg CollectorConfig) *Collector {
	cks := make([]PhaseMark, len(cfg.Checkpoints))
	for i, end := range cfg.Checkpoints {
		cks[i].End = end
	}
	return &Collector{
		cfg:         cfg,
		checkpoints: newGrid("checkpoints", cks),
		phases:      newGrid("phase marks", cfg.Phases),
	}
}

// Record folds a query outcome into the whole-run window and the
// checkpoint and phase windows in progress (and stores it when records are
// retained).
func (c *Collector) Record(r QueryRecord) {
	c.run.add(&r)
	r.ID = uint64(c.run.queries)
	if c.cfg.RetainRecords {
		c.records = append(c.records, r)
	}
	c.checkpoints.add(&r)
	c.phases.add(&r)
}

// RunWindow returns the whole run so far as one window: (0, Submitted].
func (c *Collector) RunWindow() PhaseWindow {
	return c.run.window("", 0, c.run.queries)
}

// Windows returns the figure windows at the configured checkpoint grid
// (nil without one). A checkpoint beyond the recorded count yields one
// partial final window with End set to the actual recorded count — a short
// run truncates the figure's x axis instead of silently losing its last row.
func (c *Collector) Windows() []PhaseWindow { return c.checkpoints.windows() }

// PhaseWindows returns the scenario-phase windows, the phase in progress
// included as a partial window. It returns nil when the collector was built
// without phase marks.
func (c *Collector) PhaseWindows() []PhaseWindow { return c.phases.windows() }

// Submitted returns the number of queries recorded.
func (c *Collector) Submitted() int { return c.run.queries }

// TotalMessages returns the total message count across all queries.
func (c *Collector) TotalMessages() uint64 { return uint64(c.run.messages) }

// SuccessRate returns satisfied/submitted over the whole run.
func (c *Collector) SuccessRate() float64 { return c.RunWindow().SuccessRate }

// AvgMessagesPerQuery returns mean messages per query over the whole run.
func (c *Collector) AvgMessagesPerQuery() float64 { return c.RunWindow().MessagesPerQuery }

// AvgDownloadRTT returns the mean download distance over successful
// queries.
func (c *Collector) AvgDownloadRTT() float64 { return c.RunWindow().DownloadRTT }

// SameLocalityRate returns the fraction of successful downloads served from
// the requester's own locality.
func (c *Collector) SameLocalityRate() float64 { return c.RunWindow().SameLocalityRate }

// CacheHitRate returns the fraction of successful queries answered from a
// response index rather than shared storage — how much work index caching
// is actually doing.
func (c *Collector) CacheHitRate() float64 { return c.RunWindow().CacheHitRate }

// AvgHops returns mean hops-to-hit over successful queries.
func (c *Collector) AvgHops() float64 { return c.RunWindow().AvgHops }

// Records returns a copy of all query records, or nil unless the collector
// was built with RetainRecords.
func (c *Collector) Records() []QueryRecord {
	if !c.cfg.RetainRecords {
		return nil
	}
	out := make([]QueryRecord, len(c.records))
	copy(out, c.records)
	return out
}

// String summarises the collector.
func (c *Collector) String() string {
	w := c.RunWindow()
	return fmt.Sprintf("metrics{n=%d success=%.3f msgs/q=%.1f rtt=%.1fms}",
		w.Queries, w.SuccessRate, w.MessagesPerQuery, w.DownloadRTT)
}
