package locaware

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"
)

// TestGoldenTraces pins the flight recorder's three outputs byte for byte
// on a 200-peer run of each protocol row, and of Locaware under
// steady-churn: every retained trace's kept= line and span tree, and the
// Perfetto JSON of those trees, under a tail-sampling policy that keeps
// failures, deep floods and the slowest three with a small per-query cap;
// then the keep-all timeline `locaware trace` prints, every event of every
// query with its detail, merged by virtual time with the phase entries.
func TestGoldenTraces(t *testing.T) {
	for _, c := range []struct {
		file     string
		p        Protocol
		scenario string
	}{
		{"flooding", ProtocolFlooding, ""},
		{"dicas", ProtocolDicas, ""},
		{"dicas_keys", ProtocolDicasKeys, ""},
		{"locaware", ProtocolLocaware, ""},
		{"locaware_steady_churn", ProtocolLocaware, "steady-churn"},
	} {
		o := goldenOptions()
		if c.scenario != "" {
			o.Scenario = mustScenario(t, c.scenario)
		}
		run := func(pol FlightRecorder) *Result {
			o.FlightRecorder = &pol
			res, err := Run(o, c.p, 300, 20)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		var b strings.Builder
		res := run(FlightRecorder{KeepFailed: true, MinHops: 6, SlowestN: 3, MaxEventsPerQuery: 16})
		for _, tr := range res.Traces {
			fmt.Fprintf(&b, "kept=%s q=%d latency=%s hops=%d failed=%v events=%d dropped=%d\n%s",
				tr.Why, tr.Query, tr.Latency, tr.Hops, tr.Failed, len(tr.Events), tr.Dropped, tr.Render())
		}
		var pf bytes.Buffer
		res.Traces = res.Traces[len(res.Traces)-4:]
		if err := res.WritePerfetto(&pf); err != nil {
			t.Fatal(err)
		}
		b.WriteString("== perfetto\n" + pf.String() + "== timeline\n")
		res = run(FlightRecorder{SlowestN: 320, MaxEventsPerQuery: 24})
		events := append([]TraceEvent(nil), res.TracePhases...)
		sort.Slice(res.Traces, func(i, j int) bool { return res.Traces[i].Query < res.Traces[j].Query })
		for _, tr := range res.Traces[300:] {
			events = append(events, tr.Events...)
		}
		sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
		for _, e := range events {
			b.WriteString(e.String() + "\n")
		}
		checkGolden(t, "golden_trace_"+c.file+"_200peers.txt", b.String())
	}
}

// TestRunSweepCellExemplars verifies a traced sweep ships a worst-case
// exemplar per cell, reachable through CellExemplar, without changing the
// campaign's CSV bytes.
func TestRunSweepCellExemplars(t *testing.T) {
	sw := tinyTestSweep(t, "cache-sweep")
	run := func(fr *FlightRecorder) *SweepResult {
		o := sweepOptions()
		o.FlightRecorder = fr
		res, err := RunSweep(o, sw)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(nil)
	traced := run(&FlightRecorder{SlowestN: 1, KeepFailed: true})
	if plain.CSV() != traced.CSV() {
		t.Fatal("tracing changed the campaign CSV")
	}
	if ex, err := plain.CellExemplar(0); err != nil || ex != nil {
		t.Fatalf("untraced sweep returned an exemplar: %+v, %v", ex, err)
	}
	for cell := 0; cell < traced.NumCells(); cell++ {
		ex, err := traced.CellExemplar(cell)
		if err != nil {
			t.Fatal(err)
		}
		if ex == nil {
			t.Fatalf("cell %d carries no exemplar", cell)
		}
		if ex.LatencySeconds < 0 || ex.Rendered == "" {
			t.Fatalf("cell %d exemplar malformed: %+v", cell, ex)
		}
	}
	if _, err := traced.CellExemplar(traced.NumCells()); err == nil {
		t.Fatal("out-of-range cell accepted")
	}
	if _, err := traced.CellExemplar(-1); err == nil {
		t.Fatal("negative cell accepted")
	}
}
