package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"time"

	"github.com/p2prepro/locaware/internal/core"
)

// unit is what one ensemble member cost the host and what it simulated.
// Host-side fields are wall-clock or runtime counters; Digest and Events
// are simulated and repeat exactly for a given seed. HostSlowdown is the
// calibration kernel's slowdown around the unit (see calib.go); the time
// metrics divide by it, the raw seconds stay in the report.
type unit struct {
	HostSlowdown float64 `json:"host_slowdown"`
	SetupS       float64 `json:"setup_s"`
	RunS         float64 `json:"run_s"`
	Queries      int     `json:"queries"`
	Cells        int     `json:"cells"`
	Mallocs      uint64  `json:"mallocs"`
	Bytes        uint64  `json:"bytes"`
	Attempted    int     `json:"attempted"`
	Failed       int     `json:"failed"`
	Events       uint64  `json:"events"`
	Digest       string  `json:"digest"`
	// PeakRSSMB is the resident-set high-water mark over this unit alone.
	PeakRSSMB float64 `json:"peak_rss_mb"`
	// GCCycles and GCPauseNs are the collector's work inside the run.
	GCCycles  uint32 `json:"gc_cycles"`
	GCPauseNs uint64 `json:"gc_pause_ns"`
}

func (u unit) setupS() float64         { return u.SetupS / u.HostSlowdown }
func (u unit) nsPerQuery() float64     { return u.RunS / u.HostSlowdown * 1e9 / float64(u.Queries) }
func (u unit) cellsPerS() float64      { return float64(u.Cells) * u.HostSlowdown / (u.SetupS + u.RunS) }
func (u unit) allocsPerQuery() float64 { return float64(u.Mallocs) / float64(u.Queries) }
func (u unit) bytesPerQuery() float64  { return float64(u.Bytes) / float64(u.Queries) }

// runSim builds one world and runs it, timing set-up (core.NewSimulation)
// and the run (RunMeasured) apart. The heap is collected first so one
// unit's garbage is not charged to the next. rec, when non-nil, is attached
// through the engine's observer hook for the traced variants.
func runSim(wd world, rec *spanRecorder) (unit, *core.Simulation, *core.RunResult) {
	cfg, b, warmup, measured := wd.cfg, wd.behavior, wd.warmup, wd.measured
	runtime.GC()
	t0 := time.Now()
	s := core.NewSimulation(cfg, b)
	setup := time.Since(t0)
	if rec != nil {
		s.Engine.SetObserver(rec.observe)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t1 := time.Now()
	if rec != nil {
		rec.begin(t1)
	}
	res := s.RunMeasured(warmup, measured)
	t2 := time.Now()
	if rec != nil {
		rec.end(t2)
	}
	runtime.ReadMemStats(&m1)

	total := warmup + measured
	u := unit{
		SetupS:    setup.Seconds(),
		RunS:      t2.Sub(t1).Seconds(),
		Queries:   total,
		Cells:     1,
		Mallocs:   m1.Mallocs - m0.Mallocs,
		Bytes:     m1.TotalAlloc - m0.TotalAlloc,
		Attempted: total,
		Events:    res.Events,

		HostSlowdown: 1,
		GCCycles:     m1.NumGC - m0.NumGC,
		GCPauseNs:    m1.PauseTotalNs - m0.PauseTotalNs,
	}
	// A query fails when it never finalises (the measured collector saw
	// fewer records than were submitted) or its run aborted. An unsatisfied
	// query is a simulated outcome, not a failure.
	if res.Err != nil {
		u.Failed = total
	} else if got := res.Collector.Submitted(); got < measured {
		u.Failed = measured - got
	}
	u.Digest = digestRun(res)
	return u, s, res
}

// digestRun hashes every simulated statistic of a run: a change that only
// speeds the simulator up must leave all of them identical.
func digestRun(r *core.RunResult) string {
	c := r.Collector
	sum := sha256.Sum256(fmt.Appendf(nil, "%s events=%d duration=%d submitted=%d messages=%d success=%v msgs=%v rtt=%v sameloc=%v cachehit=%v hops=%v control=%d/%d fwd=%+v cache=%d/%d err=%v\n",
		r.Protocol, r.Events, r.Duration, c.Submitted(), c.TotalMessages(),
		c.SuccessRate(), c.AvgMessagesPerQuery(), c.AvgDownloadRTT(),
		c.SameLocalityRate(), c.CacheHitRate(), c.AvgHops(),
		r.ControlMessages, r.ControlBits, r.Forwarding,
		r.CacheFilenames, r.CacheProviderEntries, r.Err))
	return hex.EncodeToString(sum[:])
}

// runUnit executes ensemble member i of the workload, untraced.
func (w *workload) runUnit(seed int64) (unit, error) {
	if w.campaign {
		return runCampaignUnit(campaignSpec, seed, campaignUnitWorkers)
	}
	u, _, _ := runSim(w.world(seed), nil)
	return u, nil
}

// stat summarises per-unit values. A run is one closed batch of units, not
// a stream of requests: quartiles are reported, no tail percentile is.
type stat struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Mean   float64 `json:"mean"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

func summarize(vs []float64) stat {
	if len(vs) == 0 {
		return stat{}
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return stat{
		Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75),
		Mean: sum / float64(len(s)), Min: s[0], Max: s[len(s)-1], N: len(s),
	}
}

// quantile interpolates linearly in sorted values.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func median(vs []float64) float64 { return summarize(vs).Median }

func mapUnits(us []unit, f func(unit) float64) []float64 {
	out := make([]float64, len(us))
	for i, u := range us {
		out[i] = f(u)
	}
	return out
}

// ensembleDigest chains the unit digests in ensemble order.
func ensembleDigest(us []unit) string {
	h := sha256.New()
	for _, u := range us {
		fmt.Fprintln(h, u.Digest)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// resetPeakRSS restarts the kernel's resident-set high-water mark, so the
// next peakRSSMB covers only what ran in between: one unit's peak instead
// of the whole process's, which a single collector hiccup anywhere in the
// run would set.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			fields := bytes.Fields(rest)
			if len(fields) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(string(fields[0]), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("reading peak RSS: no VmHWM line in /proc/self/status")
}

// endToEnd is the untraced run over the whole ensemble.
type endToEnd struct {
	Units     []unit          `json:"units"`
	Stats     map[string]stat `json:"stats"`
	SimDigest string          `json:"sim_digest"`
	Truncated bool            `json:"truncated"`
	Problems  []string        `json:"problems"`
}

func (w *workload) runEndToEnd(seed int64, seconds int) (*endToEnd, error) {
	n := w.units(seconds)
	// The ensemble is fixed work, sized so it takes about -seconds on the
	// reference machine. The cap only protects the driver's total time
	// budget on a much slower host; a truncated run says so.
	deadline := time.Now().Add(time.Duration(2.5 * float64(seconds) * float64(time.Second)))
	clock, err := newHostClock()
	if err != nil {
		return nil, err
	}
	defer clock.close()
	e := &endToEnd{}
	for i := 0; i < n; i++ {
		if i >= minUnits && time.Now().After(deadline) {
			e.Truncated = true
			break
		}
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		// The last unit repeats unit 0: its timing is one more sample and
		// its digest proves the simulated statistics repeat.
		u, err := w.runUnit(unitSeed(seed, i%(n-1)))
		if err != nil {
			return nil, fmt.Errorf("unit %d: %w", i, err)
		}
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		u.PeakRSSMB = rss - clock.bufferMB()
		u.HostSlowdown = clock.slowdownSince()
		e.Units = append(e.Units, u)
	}
	if first, last := e.Units[0], &e.Units[len(e.Units)-1]; !e.Truncated && last.Digest != first.Digest {
		last.Failed = last.Attempted
		e.Problems = append(e.Problems, fmt.Sprintf("unit 0 is not deterministic: sim_digest %s, repeated as %s", first.Digest, last.Digest))
	}
	e.Stats = map[string]stat{
		"setup_s":          summarize(mapUnits(e.Units, unit.setupS)),
		"ns_per_query":     summarize(mapUnits(e.Units, unit.nsPerQuery)),
		"cells_per_s":      summarize(mapUnits(e.Units, unit.cellsPerS)),
		"allocs_per_query": summarize(mapUnits(e.Units, unit.allocsPerQuery)),
		"bytes_per_query":  summarize(mapUnits(e.Units, unit.bytesPerQuery)),
		"peak_rss_mb":      summarize(mapUnits(e.Units, func(u unit) float64 { return u.PeakRSSMB })),
		// Not metrics: the host's measured slowdown and the uncalibrated time.
		"host_slowdown":    summarize(mapUnits(e.Units, func(u unit) float64 { return u.HostSlowdown })),
		"raw_ns_per_query": summarize(mapUnits(e.Units, func(u unit) float64 { return u.RunS * 1e9 / float64(u.Queries) })),
	}
	e.SimDigest = ensembleDigest(e.Units)
	return e, nil
}

// tally sums attempted and failed operations over units.
func tally(us []unit) (attempted, failed int) {
	for _, u := range us {
		attempted += u.Attempted
		failed += u.Failed
	}
	return attempted, failed
}
