package campaign

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"github.com/p2prepro/locaware/internal/sweep"
)

// FuzzStoreLoad feeds arbitrary bytes to the campaign layer's only outside
// input: the fuzzer's data becomes cell_000001.json in a store opened for
// the tiny plan. Whatever the bytes, Load → VerifyCell → install → export
// must not panic; a file Load skips yields one warning naming it, a cell
// VerifyCell rejects yields an error naming the field, and a cell both
// accept carries exactly cell 1's identity.
func FuzzStoreLoad(f *testing.F) {
	plan := tinyPlan(f)
	want := plan.NewCampaign().Cells[1].Cell
	cr, err := plan.RunCellAt(1, 2)
	if err != nil {
		f.Fatal(err)
	}
	// encode renders cell 1's checkpoint document after damaging it; the
	// cell's recorded SHA-256 is that of the damaged cell unless the damage
	// sets one.
	encode := func(damage func(*checkpointFile, *sweep.CellResult)) []byte {
		c := *cr
		c.Coords = append([]sweep.Coordinate(nil), cr.Coords...)
		c.Protocols = append([]sweep.ProtocolCell(nil), cr.Protocols...)
		cf := checkpointFile{Version: checkpointVersion, SpecHash: plan.Hash()}
		damage(&cf, &c)
		cell, err := json.Marshal(&c)
		if err != nil {
			f.Fatal(err)
		}
		cf.Cell = cell
		if cf.CellSHA256 == "" {
			cf.CellSHA256 = cellSum(cell)
		}
		data, err := json.Marshal(cf)
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	valid := encode(func(*checkpointFile, *sweep.CellResult) {})
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("{this is not json"))
	// One digit of a mean edited: valid JSON, the recorded SHA-256 stale.
	edited := bytes.Clone(valid)
	edited[bytes.Index(edited, []byte(`"Mean":`))+len(`"Mean":`)] ^= 1
	f.Add(edited)
	for _, damage := range []func(*checkpointFile, *sweep.CellResult){
		func(cf *checkpointFile, _ *sweep.CellResult) { cf.Version = 99 },
		func(cf *checkpointFile, _ *sweep.CellResult) { cf.SpecHash = strings.Repeat("deadbeef", 8) },
		func(cf *checkpointFile, _ *sweep.CellResult) { cf.CellSHA256 = strings.Repeat("0", 64) },
		func(_ *checkpointFile, c *sweep.CellResult) { c.Index = 2 },
		func(_ *checkpointFile, c *sweep.CellResult) { c.Index = 99 },
		func(_ *checkpointFile, c *sweep.CellResult) { c.Index = -1 },
		func(_ *checkpointFile, c *sweep.CellResult) { c.Protocols = c.Protocols[:1] },
		func(_ *checkpointFile, c *sweep.CellResult) { c.Protocols[1].Summary.SuccessRate.N = 7 },
		// One coordinate spelling the whole label: index-by-axis exporters
		// would run off the end of Coords.
		func(_ *checkpointFile, c *sweep.CellResult) {
			c.Coords = []sweep.Coordinate{{Param: "peers=60 cache-filenames", Value: 50}}
		},
	} {
		f.Add(encode(damage))
	}

	// One store for every input: executions within a process are
	// sequential, and each overwrites the same file.
	store, err := OpenStore(f.TempDir(), plan.Hash())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(store.Path(1), data, 0o644); err != nil {
			t.Fatal(err)
		}
		cells, warnings, err := store.Load()
		if err != nil {
			t.Fatal(err)
		}
		got := cells[1]
		if got == nil {
			if len(cells) != 0 || len(warnings) != 1 || !strings.Contains(warnings[0], "cell_000001.json") {
				t.Fatalf("skipped file: cells %v, warnings %q, want one warning naming it", cells, warnings)
			}
			return
		}
		if len(warnings) != 0 {
			t.Fatalf("loaded file also warned: %q", warnings)
		}
		if err := plan.VerifyCell(got); err != nil {
			for _, field := range []string{"index", "seed", "coordinates", "protocol", "trials"} {
				if strings.Contains(err.Error(), field) {
					return
				}
			}
			t.Fatalf("rejection names no field: %v", err)
		}
		if !reflect.DeepEqual(got.Cell, want) {
			t.Fatalf("verified cell carries identity %#v, want %#v", got.Cell, want)
		}
		camp := plan.NewCampaign()
		camp.Cells[got.Index] = *got
		camp.CSV()
		camp.PhaseCSV()
		for _, metric := range sweep.Metrics() {
			for _, axis := range camp.Spec.Axes {
				if _, err := camp.FigureSeries(metric, axis.Param); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
}
