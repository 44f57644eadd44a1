package locaware

import (
	"io"
	"net/http"

	"github.com/p2prepro/locaware/internal/core"
	"github.com/p2prepro/locaware/internal/obs"
)

// Observer is a run-wide observability registry: attach one to
// Options.Observer and every simulation executed under it — single runs,
// comparisons, every cell of a sweep — adds its event-loop and protocol
// counts to one scrapeable sum (counters add, gauges keep the maximum).
// Instrumentation is provably inert: the hot path only increments each
// simulation's own plain counts (added to the registry once, when its
// run ends), never touches an RNG stream or event order, so results are
// byte-identical with or without an Observer.
//
// One Observer may be shared across concurrent runs; totals then cover
// all of them. Per-run snapshots are on Result.Runtime.
type Observer struct {
	reg *obs.Registry
}

// NewObserver returns an Observer whose totals are zero. A scrape before
// the first run already advertises every metric family.
func NewObserver() *Observer { return &Observer{reg: obs.NewRegistry()} }

// Handler returns an http.Handler serving the Prometheus text exposition
// on /metrics and the runtime profiles on /debug/pprof/.
func (o *Observer) Handler() http.Handler { return obs.Handler(o.reg) }

// WriteMetrics writes the registry in Prometheus text exposition format
// (families and series in sorted order).
func (o *Observer) WriteMetrics(w io.Writer) error { return o.reg.WritePrometheus(w) }

// RuntimeStats is one run's observability snapshot — what that run
// contributed to its Observer, taken from the run's own counts, so it
// is meaningful even when the Observer is shared. Report renders it as the
// aligned text `locaware fig -stats` prints.
type RuntimeStats = core.RuntimeStats
