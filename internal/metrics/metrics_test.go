package metrics

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/p2prepro/locaware/internal/stats"
)

func rec(msgs int, success bool, rtt float64, same bool, hops int) QueryRecord {
	return QueryRecord{Messages: msgs, Success: success, DownloadRTT: rtt, SameLocality: same, Hops: hops}
}

// retaining returns a full-fidelity collector (record replay mode).
func retaining() *Collector {
	return NewCollectorWith(CollectorConfig{RetainRecords: true})
}

func TestRecordAndAggregates(t *testing.T) {
	c := NewCollector() // pure streaming: scalar metrics need no records
	c.Record(rec(10, true, 100, true, 2))
	c.Record(rec(20, false, 0, false, 0))
	c.Record(rec(30, true, 200, false, 4))

	if c.Submitted() != 3 {
		t.Fatalf("submitted = %d", c.Submitted())
	}
	if c.TotalMessages() != 60 {
		t.Fatalf("total msgs = %d", c.TotalMessages())
	}
	if got := c.SuccessRate(); got != 2.0/3.0 {
		t.Fatalf("success = %v", got)
	}
	if got := c.AvgMessagesPerQuery(); got != 20 {
		t.Fatalf("msgs/q = %v", got)
	}
	if got := c.AvgDownloadRTT(); got != 150 {
		t.Fatalf("rtt = %v", got)
	}
	if got := c.SameLocalityRate(); got != 0.5 {
		t.Fatalf("same-locality = %v", got)
	}
	if got := c.AvgHops(); got != 3 {
		t.Fatalf("hops = %v", got)
	}
	if c.String() == "" {
		t.Fatal("empty String")
	}
	if c.Records() != nil {
		t.Fatal("streaming collector must not retain records")
	}
}

func TestEmptyCollector(t *testing.T) {
	c := retaining()
	if c.SuccessRate() != 0 || c.AvgMessagesPerQuery() != 0 || c.AvgDownloadRTT() != 0 ||
		c.SameLocalityRate() != 0 || c.AvgHops() != 0 {
		t.Fatal("empty collector should return zeros")
	}
	if len(NewCollectorWith(CollectorConfig{Checkpoints: []int{10}}).Windows()) != 0 {
		t.Fatal("windows over zero records should be empty")
	}
}

func TestRecordAssignsSequentialIDs(t *testing.T) {
	c := retaining()
	for i := 0; i < 5; i++ {
		c.Record(rec(1, true, 1, false, 1))
	}
	rs := c.Records()
	for i, r := range rs {
		if r.ID != uint64(i+1) {
			t.Fatalf("record %d has id %d", i, r.ID)
		}
	}
	rs[0].Messages = 999
	if c.Records()[0].Messages == 999 {
		t.Fatal("Records exposed internal storage")
	}
}

func TestWindows(t *testing.T) {
	c := NewCollectorWith(CollectorConfig{Checkpoints: []int{5, 10}})
	// 10 queries: first 5 succeed with rtt 100 and 10 msgs, last 5 fail
	// with 50 msgs.
	for i := 0; i < 5; i++ {
		c.Record(rec(10, true, 100, true, 1))
	}
	for i := 0; i < 5; i++ {
		c.Record(rec(50, false, 0, false, 0))
	}
	ws := c.Windows()
	if len(ws) != 2 {
		t.Fatalf("windows = %d", len(ws))
	}
	if ws[0].End != 5 || ws[0].SuccessRate != 1 || ws[0].AvgMessagesPerQuery != 10 || ws[0].AvgDownloadRTTMs != 100 {
		t.Fatalf("w0 = %+v", ws[0])
	}
	if ws[1].End != 10 || ws[1].SuccessRate != 0 || ws[1].AvgMessagesPerQuery != 50 || ws[1].AvgDownloadRTTMs != 0 {
		t.Fatalf("w1 = %+v", ws[1])
	}
}

func TestWindowsSkipsBadCheckpoints(t *testing.T) {
	c := NewCollectorWith(CollectorConfig{Checkpoints: []int{2, 4, 99}, RetainRecords: true})
	for i := 0; i < 4; i++ {
		c.Record(rec(1, true, 1, false, 1))
	}
	// The trailing 99 clamps to the recorded count (4), which is already
	// covered, so no partial window appears.
	ws := c.Windows()
	if len(ws) != 2 || ws[0].End != 2 || ws[1].End != 4 {
		t.Fatalf("windows = %+v", ws)
	}
	// The replay reference additionally skips the duplicates and
	// non-ascending entries a configured grid rejects outright.
	if got := windowsFromRecords(c.Records(), marks(2, 2, 1, 4, 99)); !sameWindows(got, ws) {
		t.Fatalf("replay over a ragged list = %+v, want %+v", got, ws)
	}
}

// TestWindowsPartialFinal locks the truncation contract: a checkpoint
// beyond the recorded count yields a partial final window ending at the
// actual count instead of silently dropping the figure's last row.
func TestWindowsPartialFinal(t *testing.T) {
	c := NewCollectorWith(CollectorConfig{Checkpoints: []int{5, 10}, RetainRecords: true})
	for i := 0; i < 5; i++ {
		c.Record(rec(10, true, 100, true, 1))
	}
	for i := 0; i < 2; i++ {
		c.Record(rec(40, false, 0, false, 0))
	}
	ws := c.Windows()
	if len(ws) != 2 {
		t.Fatalf("windows = %+v", ws)
	}
	if ws[1].End != 7 || ws[1].AvgMessagesPerQuery != 40 || ws[1].SuccessRate != 0 {
		t.Fatalf("partial final window = %+v", ws[1])
	}

	// The same truncated run replayed from its records must agree.
	if got := windowsFromRecords(c.Records(), marks(5, 10)); !reflect.DeepEqual(got, ws) {
		t.Fatalf("replay partial = %+v, streaming = %+v", got, ws)
	}
}

// sameWindows compares window slices bit-for-bit, treating empty and nil
// as equal (PhaseWindow is comparable, so slices.Equal is exact equality).
func sameWindows(a, b []PhaseWindow) bool { return slices.Equal(a, b) }

// marks turns a checkpoint list into the nameless marks of figure windows.
func marks(ends ...int) []PhaseMark {
	out := make([]PhaseMark, len(ends))
	for i, end := range ends {
		out[i].End = end
	}
	return out
}

// windowsFromRecords is the reference the streaming collector must match
// bit-for-bit: it recomputes the full six-metric windows from a retained
// record stream, one pass per window, the way the pre-streaming collector
// did. Duplicate and non-ascending marks are skipped; a mark beyond the
// record count closes one partial final window.
func windowsFromRecords(records []QueryRecord, grid []PhaseMark) []PhaseWindow {
	var out []PhaseWindow
	prev := 0
	for _, m := range grid {
		end, partial := m.End, false
		if end > len(records) {
			end, partial = len(records), true
		}
		if end <= prev {
			if partial {
				break
			}
			continue
		}
		var messages, successes, sameLoc, fromCache int
		var rttSum, hopsSum float64
		for _, r := range records[prev:end] {
			messages += r.Messages
			if !r.Success {
				continue
			}
			successes++
			rttSum += r.DownloadRTT
			hopsSum += float64(r.Hops)
			if r.SameLocality {
				sameLoc++
			}
			if r.FromCache {
				fromCache++
			}
		}
		n := end - prev
		w := PhaseWindow{
			Phase: m.Name, Start: prev, End: end, Queries: n,
			AvgMessagesPerQuery: float64(messages) / float64(n),
			SuccessRate:         float64(successes) / float64(n),
		}
		if successes > 0 {
			w.AvgDownloadRTTMs = rttSum / float64(successes)
			w.AvgHops = hopsSum / float64(successes)
			w.SameLocalityRate = float64(sameLoc) / float64(successes)
			w.CacheHitRate = float64(fromCache) / float64(successes)
		}
		out = append(out, w)
		prev = end
		if partial {
			break
		}
	}
	return out
}

// TestStreamingMatchesReplay is the equivalence law of the streaming
// collector: on any record stream, the checkpoint windows, the phase
// windows and the whole-run window accumulated incrementally during the run
// are bit-identical to one replay over the retained records afterwards.
func TestStreamingMatchesReplay(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	grid := []int{10, 25, 40, 80, 120}
	phases := []PhaseMark{{Name: "calm", End: 15}, {Name: "storm", End: 60}, {Name: "after", End: 100}}
	for trial := 0; trial < 20; trial++ {
		n := 1 + r.Intn(130) // sometimes short of the last marks
		c := NewCollectorWith(CollectorConfig{Checkpoints: grid, Phases: phases, RetainRecords: true})
		for i := 0; i < n; i++ {
			q := rec(r.Intn(50), r.Intn(3) > 0, 10+490*r.Float64(), r.Intn(2) == 0, r.Intn(7))
			q.FromCache = r.Intn(3) == 0
			c.Record(q)
		}
		recs := c.Records()
		if got, want := c.Windows(), windowsFromRecords(recs, marks(grid...)); !sameWindows(got, want) {
			t.Fatalf("trial %d (n=%d): streaming windows %+v != replay %+v", trial, n, got, want)
		}
		if got, want := c.PhaseWindows(), windowsFromRecords(recs, phases); !sameWindows(got, want) {
			t.Fatalf("trial %d (n=%d): streaming phases %+v != replay %+v", trial, n, got, want)
		}
		if got, want := c.RunWindow(), windowsFromRecords(recs, marks(n))[0]; got != want {
			t.Fatalf("trial %d (n=%d): whole-run window %+v != replay %+v", trial, n, got, want)
		}
	}
}

// TestRunWindowEqualsScalarGetters pins the whole-run window to the six
// scalar getters exactly: they are one set of sums read two ways.
func TestRunWindowEqualsScalarGetters(t *testing.T) {
	c := NewCollector()
	if w := c.RunWindow(); w != (PhaseWindow{}) {
		t.Fatalf("empty run window = %+v", w)
	}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		q := rec(r.Intn(50), r.Intn(3) > 0, 10+490*r.Float64(), r.Intn(2) == 0, r.Intn(7))
		q.FromCache = r.Intn(3) == 0
		c.Record(q)
	}
	w := c.RunWindow()
	if w.Phase != "" || w.Start != 0 || w.End != c.Submitted() || w.Queries != c.Submitted() {
		t.Fatalf("run window span = %+v, submitted %d", w, c.Submitted())
	}
	if w.SuccessRate != c.SuccessRate() || w.AvgMessagesPerQuery != c.AvgMessagesPerQuery() ||
		w.AvgDownloadRTTMs != c.AvgDownloadRTT() || w.SameLocalityRate != c.SameLocalityRate() ||
		w.CacheHitRate != c.CacheHitRate() || w.AvgHops != c.AvgHops() {
		t.Fatalf("run window %+v disagrees with the scalar getters of %v", w, c)
	}
	if w.AvgMessagesPerQuery != float64(c.TotalMessages())/float64(c.Submitted()) {
		t.Fatalf("msgs/q %v != total %d / submitted %d", w.AvgMessagesPerQuery, c.TotalMessages(), c.Submitted())
	}
}

// TestWindowsRequireGridOrRecords settles the question in its name: windows
// exist only at a configured grid; retained records do not stand in for one.
func TestWindowsRequireGridOrRecords(t *testing.T) {
	c := retaining()
	c.Record(rec(1, true, 1, false, 1))
	if ws := c.Windows(); ws != nil {
		t.Fatalf("collector without a grid produced windows %+v", ws)
	}
}

func TestCheckpointValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("misordered checkpoints must panic")
		}
	}()
	NewCollectorWith(CollectorConfig{Checkpoints: []int{10, 5}})
}

// The TestAggregateWindows cases feed AggregatePhases figure checkpoint
// windows — nameless, told apart by End alone — the way
// TrialComparison.FigureSeries does.
func TestAggregateWindows(t *testing.T) {
	trial := func(sr, mpq, rtt float64) []PhaseWindow {
		return []PhaseWindow{
			{End: 50, SuccessRate: sr, AvgMessagesPerQuery: mpq, AvgDownloadRTTMs: rtt},
			{Start: 50, End: 100, SuccessRate: sr / 2, AvgMessagesPerQuery: mpq, AvgDownloadRTTMs: rtt},
		}
	}
	agg := AggregatePhases([][]PhaseWindow{trial(0.4, 10, 100), trial(0.6, 20, 200)})
	if len(agg) != 2 {
		t.Fatalf("aggregated %d checkpoints", len(agg))
	}
	if agg[0].End != 50 || agg[1].Start != 50 || agg[1].End != 100 {
		t.Fatalf("checkpoint order: %+v", agg)
	}
	w := agg[0]
	if w.SuccessRate.N != 2 || w.SuccessRate.Mean != 0.5 {
		t.Fatalf("success summary = %+v", w.SuccessRate)
	}
	if w.AvgMessagesPerQuery.Mean != 15 || w.AvgDownloadRTTMs.Mean != 150 {
		t.Fatalf("window summary = %+v", w)
	}
	if w.SuccessRate.StdDev == 0 || w.SuccessRate.CI95() == 0 {
		t.Fatal("two distinct trials must have spread")
	}
}

func TestAggregateWindowsRaggedTrials(t *testing.T) {
	a := []PhaseWindow{{End: 10, SuccessRate: 0}} // shorter trial, listed first
	b := []PhaseWindow{{End: 10, SuccessRate: 1}, {Start: 10, End: 20, SuccessRate: 1}}
	agg := AggregatePhases([][]PhaseWindow{a, b})
	if len(agg) != 2 {
		t.Fatalf("aggregated %d checkpoints", len(agg))
	}
	if agg[0].SuccessRate.N != 2 || agg[0].SuccessRate.Mean != 0.5 {
		t.Fatalf("shared checkpoint = %+v", agg[0].SuccessRate)
	}
	// The tail pools only the trial that reached it, and takes its span
	// from that trial.
	if agg[1].SuccessRate.N != 1 || agg[1].SuccessRate.Mean != 1 || agg[1].Start != 10 || agg[1].End != 20 {
		t.Fatalf("ragged checkpoint = %+v", agg[1])
	}
}

func TestAggregateWindowsEmpty(t *testing.T) {
	if got := AggregatePhases(nil); got != nil {
		t.Fatalf("AggregatePhases(nil) = %v", got)
	}
	if got := AggregatePhases([][]PhaseWindow{nil, {}}); got != nil {
		t.Fatalf("AggregatePhases(empty) = %v", got)
	}
}

func TestPhaseWindowsIndependentOfCheckpoints(t *testing.T) {
	// Phase marks and figure checkpoints are separate grids over the same
	// stream; configuring both must not perturb either.
	grid := []int{2, 4}
	with := NewCollectorWith(CollectorConfig{Checkpoints: grid, Phases: []PhaseMark{{Name: "all", End: 4}}})
	without := NewCollectorWith(CollectorConfig{Checkpoints: grid})
	recs := []QueryRecord{
		{Messages: 3, Success: true, DownloadRTT: 90, Hops: 1},
		{Messages: 5},
		{Messages: 7, Success: true, DownloadRTT: 10, Hops: 2},
		{Messages: 9},
	}
	for _, r := range recs {
		with.Record(r)
		without.Record(r)
	}
	a, b := with.Windows(), without.Windows()
	if len(a) != len(b) {
		t.Fatalf("window counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("window %d drifted with phases configured: %+v vs %+v", i, a[i], b[i])
		}
	}
	ws := with.PhaseWindows()
	if len(ws) != 1 || ws[0].Queries != 4 || ws[0].AvgMessagesPerQuery != 6 || ws[0].SuccessRate != 0.5 {
		t.Fatalf("phase window = %+v", ws)
	}
	if without.PhaseWindows() != nil {
		t.Fatal("collector without phase marks invented phase windows")
	}
}

// TestPhaseMarkValidation: marks must ascend from a first end of at least 1.
func TestPhaseMarkValidation(t *testing.T) {
	for _, c := range []struct {
		ends   []int
		panics bool
	}{{[]int{5, 5}, true}, {[]int{0}, true}, {[]int{1}, false}} {
		func() {
			defer func() {
				if got := recover() != nil; got != c.panics {
					t.Errorf("phase marks ending %v: panicked %v, want %v", c.ends, got, c.panics)
				}
			}()
			NewCollectorWith(CollectorConfig{Phases: marks(c.ends...)})
		}()
	}
}

func TestAggregatePhases(t *testing.T) {
	trials := [][]PhaseWindow{
		{
			{Phase: "calm", Start: 0, End: 4, Queries: 4, SuccessRate: 0.5, AvgMessagesPerQuery: 6, AvgDownloadRTTMs: 100, SameLocalityRate: 0.5, CacheHitRate: 0.25, AvgHops: 2},
			{Phase: "wave", Start: 4, End: 8, Queries: 4, SuccessRate: 0.25, AvgMessagesPerQuery: 8, AvgDownloadRTTMs: 140, SameLocalityRate: 0, CacheHitRate: 0.5, AvgHops: 3},
		},
		{
			{Phase: "calm", Start: 0, End: 4, Queries: 3, SuccessRate: 0.7, AvgMessagesPerQuery: 4, AvgDownloadRTTMs: 80, SameLocalityRate: 0.3, CacheHitRate: 0.75, AvgHops: 4},
			{Phase: "wave", Start: 4, End: 8, Queries: 2, SuccessRate: 0.35, AvgMessagesPerQuery: 6, AvgDownloadRTTMs: 120, SameLocalityRate: 0.2, CacheHitRate: 0.7, AvgHops: 5},
		},
	}
	ps := AggregatePhases(trials)
	if len(ps) != 2 {
		t.Fatalf("got %d phase stats, want 2", len(ps))
	}
	if calm := ps[0].SuccessRate; calm.N != 2 || calm.Mean != 0.6 {
		t.Fatalf("calm success = %+v", calm)
	}
	// Every one of the seven summaries takes its own field of both trials.
	of := func(a, b float64) stats.Summary { return stats.Summarize([]float64{a, b}) }
	want := []PhaseStats{
		{Phase: "calm", Start: 0, End: 4, Queries: of(4, 3), SuccessRate: of(0.5, 0.7), AvgMessagesPerQuery: of(6, 4),
			AvgDownloadRTTMs: of(100, 80), SameLocalityRate: of(0.5, 0.3), CacheHitRate: of(0.25, 0.75), AvgHops: of(2, 4)},
		{Phase: "wave", Start: 4, End: 8, Queries: of(4, 2), SuccessRate: of(0.25, 0.35), AvgMessagesPerQuery: of(8, 6),
			AvgDownloadRTTMs: of(140, 120), SameLocalityRate: of(0, 0.2), CacheHitRate: of(0.5, 0.7), AvgHops: of(3, 5)},
	}
	for k := range want {
		if !reflect.DeepEqual(ps[k], want[k]) {
			t.Fatalf("phase %d:\n got %+v\nwant %+v", k, ps[k], want[k])
		}
	}
}

func TestAggregatePhasesRagged(t *testing.T) {
	trials := [][]PhaseWindow{
		{{Phase: "a", End: 5, Queries: 5, SuccessRate: 0.4}},
		{{Phase: "a", End: 5, Queries: 5, SuccessRate: 0.6}, {Phase: "b", Start: 5, End: 10, Queries: 5, SuccessRate: 1}},
	}
	ps := AggregatePhases(trials)
	if len(ps) != 2 {
		t.Fatalf("got %d phase stats, want 2", len(ps))
	}
	if ps[0].SuccessRate.N != 2 || ps[0].SuccessRate.Mean != 0.5 {
		t.Fatalf("phase a = %+v", ps[0].SuccessRate)
	}
	if ps[1].SuccessRate.N != 1 || ps[1].SuccessRate.Mean != 1 {
		t.Fatalf("truncated trial must shrink the sample, got %+v", ps[1].SuccessRate)
	}
}

func TestAggregatePhasesEmpty(t *testing.T) {
	if got := AggregatePhases(nil); len(got) != 0 {
		t.Fatalf("AggregatePhases(nil) = %v", got)
	}
}
