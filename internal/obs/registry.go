// Package obs is the run-wide observability layer: a dependency-free
// metrics registry (counters and gauges) with a Prometheus text exposition
// writer. Registry totals are atomics so they can be scraped from an HTTP
// handler while runs are in flight, and so the concurrent simulations of a
// campaign can share one registry; the simulation hot path never touches
// them — a run counts in plain fields of its own and core folds them into
// the registry once, when the run ends.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind classifies a metric family for the exposition format.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	}
	return "untyped"
}

// Registry holds metric families keyed by name. All methods are safe for
// concurrent use; WritePrometheus observes atomics, so a scrape taken while
// a run folds its counts in may see some families updated and not others.
type Registry struct {
	mu       sync.Mutex
	families map[string]*Family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*Family)}
}

// Family is one named metric with zero or more label-value series. A
// family has at most one label key; plain (unlabeled) families hold a
// single series under the empty label value.
type Family struct {
	name  string
	help  string
	kind  Kind
	label string // label key; "" for plain families

	mu     sync.Mutex
	series map[string]*series
}

type series struct {
	c atomic.Uint64 // counter total
	g atomic.Int64  // gauge value
}

func (f *Family) get(label string) *series {
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[label]; ok {
		return s
	}
	s := &series{}
	f.series[label] = s
	return s
}

func (r *Registry) family(name, help string, kind Kind, label string) *Family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind {
			panic("obs: metric " + name + " re-registered as " + kind.String() + ", was " + f.kind.String())
		}
		return f
	}
	f := &Family{name: name, help: help, kind: kind, label: label, series: make(map[string]*series)}
	r.families[name] = f
	return f
}

// Counter is a monotonically increasing uint64. Add is atomic and safe from
// any goroutine; it is meant for end-of-run totals, not the simulation hot
// path.
type Counter struct{ s *series }

func (c *Counter) Add(n uint64)  { c.s.c.Add(n) }
func (c *Counter) Value() uint64 { return c.s.c.Load() }

// Counter registers (or fetches) a plain counter family and returns its
// single series.
func (r *Registry) Counter(name, help string) *Counter {
	return &Counter{r.family(name, help, KindCounter, "").get("")}
}

// CounterVec is a counter family with one label key.
type CounterVec struct{ f *Family }

// CounterVec registers (or fetches) a labeled counter family.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	return &CounterVec{r.family(name, help, KindCounter, label)}
}

// With returns the counter for one label value, creating it on first use.
func (v *CounterVec) With(value string) *Counter { return &Counter{v.f.get(value)} }

// Gauge is an int64 level (queue depths, high-waters, pool sizes) that
// SetMax raises: a running maximum across concurrent writers.
type Gauge struct{ s *series }

func (g *Gauge) Value() int64 { return g.s.g.Load() }

// SetMax raises the gauge to v if v exceeds the current value.
func (g *Gauge) SetMax(v int64) {
	for {
		old := g.s.g.Load()
		if v <= old {
			return
		}
		if g.s.g.CompareAndSwap(old, v) {
			return
		}
	}
}

// Gauge registers (or fetches) a plain gauge family's single series.
func (r *Registry) Gauge(name, help string) *Gauge {
	return &Gauge{r.family(name, help, KindGauge, "").get("")}
}

// GaugeVec is a gauge family with one label key.
type GaugeVec struct{ f *Family }

func (r *Registry) GaugeVec(name, help, label string) *GaugeVec {
	return &GaugeVec{r.family(name, help, KindGauge, label)}
}

func (v *GaugeVec) With(value string) *Gauge { return &Gauge{v.f.get(value)} }

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// WritePrometheus renders every family in Prometheus text exposition
// format (version 0.0.4): families sorted by name, series by label
// value, HELP/TYPE headers emitted even for series-less families so the
// full catalog is visible before the first run.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for n := range r.families {
		names = append(names, n)
	}
	fams := make([]*Family, len(names))
	sort.Strings(names)
	for i, n := range names {
		fams[i] = r.families[n]
	}
	r.mu.Unlock()

	for _, f := range fams {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		f.mu.Lock()
		labels := make([]string, 0, len(f.series))
		for l := range f.series {
			labels = append(labels, l)
		}
		sort.Strings(labels)
		sers := make([]*series, len(labels))
		for i, l := range labels {
			sers[i] = f.series[l]
		}
		f.mu.Unlock()
		for i, s := range sers {
			if err := writeSeries(w, f, labels[i], s); err != nil {
				return err
			}
		}
	}
	return nil
}

func labelPair(f *Family, label string) string {
	if f.label == "" {
		return ""
	}
	return "{" + f.label + `="` + labelEscaper.Replace(label) + `"}`
}

func writeSeries(w io.Writer, f *Family, label string, s *series) error {
	lp := labelPair(f, label)
	switch f.kind {
	case KindCounter:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, lp, s.c.Load())
		return err
	case KindGauge:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, lp, s.g.Load())
		return err
	}
	return nil
}
