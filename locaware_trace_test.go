package locaware

import (
	"testing"
)

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
