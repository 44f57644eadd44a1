package locaware

import (
	"fmt"
	"io"

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
// would keep nothing, and every entry point refuses it, as it refuses a
// negative SlowestN, MinHops or MaxEventsPerQuery. SlowestN at least the
// run's query count (warmup included) keeps every query.
// MaxEventsPerQuery bounds the in-flight buffer per query (0 means 256,
// overflow counted in Trace.Dropped); the KeepFailed/MinHops
// retentions are capped at the first 64.
type FlightRecorder = trace.Policy

// Trace is one retained query's causal record (Result.Traces): Query, its
// submission sequence number; Latency, a sim.Time (download, or finalize
// for a failure, minus submission; call Seconds); Hops, its deepest forward
// chain; Failed; Why, the criteria that kept it ("failed", "hops",
// "slowest", comma-joined); Events, its log in emission order; Dropped, the
// events MaxEventsPerQuery discarded. Render draws its span tree as a text
// timeline, each closed hop split into propagation and processing.
type Trace = trace.QueryTrace

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
		if tree := t.Tree(); tree != nil {
			trees = append(trees, tree)
		}
	}
	return trace.WritePerfetto(w, trees, r.TracePhases)
}
