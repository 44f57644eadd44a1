package locaware

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestFlightRecorderFacade exercises Options.FlightRecorder end to end:
// retained traces land on Result.Traces slowest-first, render as span-tree
// timelines, export as valid Chrome/Perfetto JSON — and recording is
// inert, leaving the run's metrics identical to an untraced twin.
func TestFlightRecorderFacade(t *testing.T) {
	plain, err := Run(fastOptions(7), ProtocolLocaware, 10, 80)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Traces != nil {
		t.Fatal("untraced run must carry no traces")
	}

	o := fastOptions(7)
	o.FlightRecorder = &FlightRecorder{SlowestN: 3, KeepFailed: true}
	res, err := Run(o, ProtocolLocaware, 10, 80)
	if err != nil {
		t.Fatal(err)
	}
	if res.SuccessRate != plain.SuccessRate || res.Events != plain.Events {
		t.Fatalf("recorder perturbed the run: traced %+v vs plain %+v",
			res.SuccessRate, plain.SuccessRate)
	}
	if len(res.Traces) < 3 {
		t.Fatalf("retained %d traces, want >= 3 (slowest-N plus failures)", len(res.Traces))
	}
	for i, tr := range res.Traces {
		if tr.Why == "" || len(tr.Events) == 0 {
			t.Fatalf("trace %d incomplete: why=%q events=%d", i, tr.Why, len(tr.Events))
		}
		if i > 0 && !res.Traces[i].Failed && !res.Traces[i-1].Failed &&
			res.Traces[i].Latency > res.Traces[i-1].Latency {
			t.Fatalf("traces not slowest-first at %d: %s > %s",
				i, res.Traces[i].Latency, res.Traces[i-1].Latency)
		}
	}
	rendered := res.Traces[0].Render()
	if !strings.Contains(rendered, "q=") || !strings.Contains(rendered, "submit@") {
		t.Fatalf("rendered timeline malformed:\n%s", rendered)
	}

	var buf bytes.Buffer
	if err := res.WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("Perfetto export is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	tracks, spans := 0, 0
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			tracks++
		case "X":
			spans++
		}
	}
	if tracks == 0 || spans == 0 {
		t.Fatalf("Perfetto export has %d tracks, %d spans; want both > 0", tracks, spans)
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
