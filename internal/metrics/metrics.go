// Package metrics implements the measurement pipeline behind §5's three
// performance metrics:
//
//   - download distance — average RTT from requester to the chosen provider;
//   - search traffic — total messages produced by a query;
//   - success rate — satisfied queries / submitted queries.
//
// Each figure plots its metric against the number of queries submitted, so
// the collector exposes windowed series keyed by cumulative query count.
//
// The collector is a streaming accumulator: every metric is maintained as a
// constant-size set of running sums and counters, and the per-checkpoint
// figure windows are sealed incrementally as the query count crosses each
// checkpoint. Collector state is therefore O(checkpoints), not O(queries),
// which is what lets a million-query run fit in memory. Full per-query
// records are available as an opt-in (CollectorConfig.RetainRecords) for
// trace tooling; the streaming outputs are bit-identical to a replay over
// the retained records because both accumulate the same float64 sums in the
// same submission order.
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
	// figure windows are sealed. With checkpoints configured, Windows is
	// served from streaming accumulators sealed during the run; without
	// them only the whole-run scalar metrics are available.
	Checkpoints []int
	// Phases segments the query stream into named contiguous spans
	// (scenario phases): each mark closes the span (prevEnd, End] under its
	// name. Like checkpoint windows, phase windows are sealed by streaming
	// accumulators during the run — per-phase state is O(phases), never
	// O(queries) — and they carry the full metric set (PhaseWindow), not
	// just the three figure metrics. Ends must be ascending and positive.
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

// windowAcc is the constant-size accumulator of one in-progress figure
// window. Sums are accumulated in submission order so sealed values are
// bit-identical to a replay over the same records.
type windowAcc struct {
	messages  int
	successes int
	rttSum    float64
}

// phaseAcc is the constant-size accumulator of one in-progress scenario
// phase; unlike the figure windows it tracks the full metric set.
type phaseAcc struct {
	queries   int
	messages  int
	successes int
	sameLoc   int
	fromCache int
	rttSum    float64
	hopsSum   float64
}

func (a *phaseAcc) add(r QueryRecord) {
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
func (a *phaseAcc) window(name string, start, end int) PhaseWindow {
	w := PhaseWindow{Name: name, Start: start, End: end, Queries: a.queries}
	if a.queries > 0 {
		w.MessagesPerQuery = float64(a.messages) / float64(a.queries)
		w.SuccessRate = float64(a.successes) / float64(a.queries)
	}
	w.DownloadRTT = meanOrZero(a.rttSum, a.successes)
	w.AvgHops = meanOrZero(a.hopsSum, a.successes)
	if a.successes > 0 {
		w.SameLocalityRate = float64(a.sameLoc) / float64(a.successes)
		w.CacheHitRate = float64(a.fromCache) / float64(a.successes)
	}
	return w
}

// Collector accumulates query outcomes for one protocol run as O(1)
// streaming sums. It optionally retains full records (RetainRecords).
type Collector struct {
	cfg CollectorConfig

	// Whole-run streaming accumulators.
	submitted     int
	totalMessages uint64
	successes     int
	rttSum        float64
	sameLocality  int
	fromCache     int
	hopsSum       float64

	// Sealed per-checkpoint windows; nextCk indexes the first unsealed
	// checkpoint and win accumulates the window in progress.
	sealed []Window
	nextCk int
	win    windowAcc

	// Sealed scenario-phase windows; nextPhase indexes the first unsealed
	// phase mark and pacc accumulates the phase in progress.
	phaseSealed []PhaseWindow
	nextPhase   int
	pacc        phaseAcc

	// records is populated only in RetainRecords mode.
	records []QueryRecord
}

// NewCollector returns an empty streaming collector with no checkpoint grid
// and no record retention: all whole-run scalar metrics work in O(1) state,
// but Windows needs a grid (see NewCollectorWith).
func NewCollector() *Collector { return NewCollectorWith(CollectorConfig{}) }

// NewCollectorWith returns an empty collector for the given configuration.
// Checkpoints must be ascending and positive; out-of-order entries panic,
// since a misordered grid would silently corrupt every figure.
func NewCollectorWith(cfg CollectorConfig) *Collector {
	prev := 0
	for _, ck := range cfg.Checkpoints {
		if ck <= prev {
			panic(fmt.Sprintf("metrics: checkpoints must be ascending and positive, got %v", cfg.Checkpoints))
		}
		prev = ck
	}
	prev = 0
	for _, pm := range cfg.Phases {
		if pm.End <= prev {
			panic(fmt.Sprintf("metrics: phase marks must be ascending and positive, got %v", cfg.Phases))
		}
		prev = pm.End
	}
	c := &Collector{cfg: cfg}
	if n := len(cfg.Checkpoints); n > 0 {
		c.sealed = make([]Window, 0, n)
	}
	if n := len(cfg.Phases); n > 0 {
		c.phaseSealed = make([]PhaseWindow, 0, n)
	}
	return c
}

// Config returns the collector's configuration.
func (c *Collector) Config() CollectorConfig { return c.cfg }

// Record folds a query outcome into the running sums (and stores it when
// records are retained).
func (c *Collector) Record(r QueryRecord) {
	c.submitted++
	r.ID = uint64(c.submitted)
	c.totalMessages += uint64(r.Messages)
	c.win.messages += r.Messages
	if r.Success {
		c.successes++
		c.rttSum += r.DownloadRTT
		c.hopsSum += float64(r.Hops)
		c.win.successes++
		c.win.rttSum += r.DownloadRTT
		if r.SameLocality {
			c.sameLocality++
		}
		if r.FromCache {
			c.fromCache++
		}
	}
	if c.cfg.RetainRecords {
		c.records = append(c.records, r)
	}
	// Seal the window if this query is the next checkpoint.
	if c.nextCk < len(c.cfg.Checkpoints) && c.submitted == c.cfg.Checkpoints[c.nextCk] {
		c.seal()
	}
	// Fold the record into the scenario phase in progress and seal it at
	// the phase boundary.
	if c.nextPhase < len(c.cfg.Phases) {
		c.pacc.add(r)
		if c.submitted == c.cfg.Phases[c.nextPhase].End {
			c.sealPhase()
		}
	}
}

// sealPhase closes the in-progress phase window at the current count.
func (c *Collector) sealPhase() {
	start := 0
	if n := len(c.phaseSealed); n > 0 {
		start = c.phaseSealed[n-1].End
	}
	c.phaseSealed = append(c.phaseSealed,
		c.pacc.window(c.cfg.Phases[c.nextPhase].Name, start, c.submitted))
	c.pacc = phaseAcc{}
	c.nextPhase++
}

// seal closes the in-progress window at the current query count.
func (c *Collector) seal() {
	prev := 0
	if n := len(c.sealed); n > 0 {
		prev = c.sealed[n-1].End
	}
	n := c.submitted - prev
	c.sealed = append(c.sealed, Window{
		End:              c.submitted,
		MessagesPerQuery: float64(c.win.messages) / float64(n),
		SuccessRate:      float64(c.win.successes) / float64(n),
		DownloadRTT:      meanOrZero(c.win.rttSum, c.win.successes),
	})
	c.win = windowAcc{}
	c.nextCk++
}

func meanOrZero(sum float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Submitted returns the number of queries recorded.
func (c *Collector) Submitted() int { return c.submitted }

// TotalMessages returns the total message count across all queries.
func (c *Collector) TotalMessages() uint64 { return c.totalMessages }

// SuccessRate returns satisfied/submitted over the whole run.
func (c *Collector) SuccessRate() float64 {
	if c.submitted == 0 {
		return 0
	}
	return float64(c.successes) / float64(c.submitted)
}

// AvgMessagesPerQuery returns mean messages per query over the whole run.
func (c *Collector) AvgMessagesPerQuery() float64 {
	if c.submitted == 0 {
		return 0
	}
	return float64(c.totalMessages) / float64(c.submitted)
}

// AvgDownloadRTT returns the mean download distance over successful
// queries.
func (c *Collector) AvgDownloadRTT() float64 {
	return meanOrZero(c.rttSum, c.successes)
}

// SameLocalityRate returns the fraction of successful downloads served from
// the requester's own locality.
func (c *Collector) SameLocalityRate() float64 {
	if c.successes == 0 {
		return 0
	}
	return float64(c.sameLocality) / float64(c.successes)
}

// CacheHitRate returns the fraction of successful queries answered from a
// response index rather than shared storage — how much work index caching
// is actually doing.
func (c *Collector) CacheHitRate() float64 {
	if c.successes == 0 {
		return 0
	}
	return float64(c.fromCache) / float64(c.successes)
}

// AvgHops returns mean hops-to-hit over successful queries.
func (c *Collector) AvgHops() float64 {
	return meanOrZero(c.hopsSum, c.successes)
}

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

// PhaseWindow is the full metric set of one scenario phase, covering the
// queries in (Start, End] of the measured stream.
type PhaseWindow struct {
	// Name is the phase's name from the scenario spec.
	Name string
	// Start (exclusive) and End (inclusive) bound the phase's cumulative
	// query counts; Queries is the number actually recorded in the span.
	Start, End, Queries int
	// The §5 figure metrics over the phase.
	DownloadRTT      float64
	MessagesPerQuery float64
	SuccessRate      float64
	// The secondary metrics over the phase (success-conditioned, like the
	// whole-run scalars).
	SameLocalityRate float64
	CacheHitRate     float64
	AvgHops          float64
}

// PhaseWindows returns the sealed scenario-phase windows, plus a partial
// window for an in-progress phase with at least one recorded query — a
// truncated run reports what it measured instead of dropping its tail. It
// returns nil when the collector was built without phase marks.
func (c *Collector) PhaseWindows() []PhaseWindow {
	if len(c.cfg.Phases) == 0 {
		return nil
	}
	out := append(make([]PhaseWindow, 0, len(c.phaseSealed)+1), c.phaseSealed...)
	if c.nextPhase < len(c.cfg.Phases) && c.pacc.queries > 0 {
		start := 0
		if n := len(out); n > 0 {
			start = out[n-1].End
		}
		out = append(out, c.pacc.window(c.cfg.Phases[c.nextPhase].Name, start, c.submitted))
	}
	return out
}

// Window aggregates one checkpoint of a figure series: the metric values
// over queries (prevEnd, End].
type Window struct {
	// End is the cumulative query count at the checkpoint (figure x value).
	End int
	// DownloadRTT is the mean download distance within the window.
	DownloadRTT float64
	// MessagesPerQuery is the mean per-query traffic within the window.
	MessagesPerQuery float64
	// SuccessRate is the within-window success fraction.
	SuccessRate float64
}

// Windows returns the figure windows at the configured checkpoint grid,
// sealed by the streaming accumulators during the run (nil without a
// grid). A grid checkpoint beyond the recorded count yields one partial
// final window covering the queries since the last full checkpoint, with
// End set to the actual recorded count — a short run truncates the figure's
// x axis instead of silently losing its last row.
func (c *Collector) Windows() []Window {
	if len(c.cfg.Checkpoints) == 0 {
		return nil
	}
	// Copy out (as Records does): the sealed slice is live collector
	// state and the run may seal further windows after this call.
	out := append(make([]Window, 0, len(c.sealed)+1), c.sealed...)
	// Partial final window: queries recorded past the last sealed
	// checkpoint, with at least one unmet checkpoint remaining.
	if c.nextCk < len(c.cfg.Checkpoints) {
		prev := 0
		if n := len(out); n > 0 {
			prev = out[n-1].End
		}
		if c.submitted > prev {
			out = append(out, Window{
				End:              c.submitted,
				MessagesPerQuery: float64(c.win.messages) / float64(c.submitted-prev),
				SuccessRate:      float64(c.win.successes) / float64(c.submitted-prev),
				DownloadRTT:      meanOrZero(c.win.rttSum, c.win.successes),
			})
		}
	}
	return out
}

// String summarises the collector.
func (c *Collector) String() string {
	return fmt.Sprintf("metrics{n=%d success=%.3f msgs/q=%.1f rtt=%.1fms}",
		c.Submitted(), c.SuccessRate(), c.AvgMessagesPerQuery(), c.AvgDownloadRTT())
}
