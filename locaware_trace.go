package locaware

import (
	"fmt"
	"io"

	"github.com/p2prepro/locaware/internal/core"
	"github.com/p2prepro/locaware/internal/sim"
	"github.com/p2prepro/locaware/internal/sweep"
	"github.com/p2prepro/locaware/internal/trace"
)

// FlightRecorder configures tail-sampling causal query tracing
// (Options.FlightRecorder): every query's events buffer only while the
// query is in flight, and on finalisation the trace is kept iff it matches
// at least one retention criterion — so the outliers of a huge run are
// caught in constant memory. Retained traces land on Result.Traces as
// reconstructed causal span trees (submission → per-hop forwards → hit →
// reverse-path response hops → download), renderable as text timelines or
// exportable to Chrome/Perfetto via Result.WritePerfetto.
//
// Recording is inert: all metrics are byte-identical with or without a
// recorder attached.
//
// The criteria: SlowestN keeps the N completed queries with the highest
// latency (download time for answered queries, time-to-finalize for failed
// ones) in constant memory; KeepFailed keeps every query finalised without
// an answer; MinHops keeps queries whose flood reached at least that
// forward depth. A policy needs at least one of the three: with none it
// would keep nothing, and every entry point refuses it. SlowestN at least
// the run's query count (warmup included) keeps every query.
// MaxEventsPerQuery bounds the in-flight buffer per query (<= 0 means 256,
// overflow counted in Trace.DroppedEvents); the KeepFailed/MinHops
// retentions are capped at the first 64.
type FlightRecorder = trace.Policy

// Trace is one retained query's causal record (Options.FlightRecorder).
type Trace struct {
	// Query is the query's 1-based submission sequence number.
	Query uint64
	// SubmitSeconds is the submission timestamp in virtual seconds.
	SubmitSeconds float64
	// LatencySeconds is the completion latency in seconds: download time
	// minus submission for answered queries, time-to-finalize for failures.
	LatencySeconds float64
	// Hops is the deepest forward chain the query reached.
	Hops int
	// Failed reports the query finalised without an answer.
	Failed bool
	// Why names the retention criteria that kept the trace ("failed",
	// "hops", "slowest", comma-joined).
	Why string
	// Events is the query's flat event log in emission (virtual-time) order.
	Events []TraceEvent
	// DroppedEvents counts events discarded by MaxEventsPerQuery.
	DroppedEvents int

	qt         *trace.QueryTrace
	processing sim.Time
}

// Render reconstructs the query's span tree and formats it as an indented
// text timeline: one line per span with offsets relative to submission and
// each closed hop's latency split into propagation and processing.
func (t *Trace) Render() string {
	tree := t.qt.Tree(t.processing)
	if tree == nil {
		return ""
	}
	return tree.Render()
}

// liftTraces converts a run's retained traces into the facade shape.
func liftTraces(r *core.RunResult) []*Trace {
	if len(r.Traces) == 0 {
		return nil
	}
	out := make([]*Trace, len(r.Traces))
	for i, qt := range r.Traces {
		out[i] = &Trace{
			Query:          qt.Query,
			SubmitSeconds:  qt.Submit.Seconds(),
			LatencySeconds: qt.Latency.Seconds(),
			Hops:           qt.Hops,
			Failed:         qt.Failed,
			Why:            qt.Why,
			Events:         liftEvents(qt.Events),
			DroppedEvents:  qt.Dropped,
			qt:             qt,
			processing:     r.TraceProcessing,
		}
	}
	return out
}

// SweepExemplar is one campaign cell's worst-case query trace: the
// highest-latency trace retained across the cell's (protocol × trial)
// runs, pre-rendered as a text timeline. Cells carry exemplars when the
// campaign runs with Options.FlightRecorder set. Protocol (a name) and
// Trial locate the run that produced the trace; Query, LatencySeconds,
// Failed and Hops summarise it.
type SweepExemplar = sweep.ExemplarTrace

// CellExemplar returns grid cell `cell`'s worst-case query trace, or nil
// when the cell carries none (campaign ran untraced, or no trace matched
// the retention policy).
func (r *SweepResult) CellExemplar(cell int) (*SweepExemplar, error) {
	if cell < 0 || cell >= len(r.campaign.Cells) {
		return nil, fmt.Errorf("locaware: cell %d out of range [0, %d)", cell, len(r.campaign.Cells))
	}
	return r.campaign.Cells[cell].Exemplar, nil
}

// WritePerfetto exports the run's retained traces in the Chrome trace-event
// JSON format, loadable in Perfetto (ui.perfetto.dev) or chrome://tracing:
// one track per participating peer, one complete event per span, and a
// global instant per scenario phase entry (Result.TracePhases). It is a
// no-op JSON document when the run retained no traces; it errors only on
// writer failure.
func (r *Result) WritePerfetto(w io.Writer) error {
	trees := make([]*trace.SpanTree, 0, len(r.Traces))
	for _, t := range r.Traces {
		if tree := t.qt.Tree(t.processing); tree != nil {
			trees = append(trees, tree)
		}
	}
	phases := make([]trace.Event, len(r.TracePhases))
	for i, e := range r.TracePhases {
		phases[i] = trace.Event{At: sim.FromSeconds(e.AtSeconds), Kind: trace.PhaseEnter, Peer: -1, From: -1, Detail: e.Detail}
	}
	return trace.WritePerfetto(w, trees, phases)
}
