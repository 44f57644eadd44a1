package locaware

import (
	"fmt"
	"strings"
	"testing"
)

// TestGoldenObsReport locks the observability output byte for byte: the
// -stats report of trial 0 per protocol and the Observer's Prometheus dump
// after the golden comparison. Every value repeats for a seed — event
// counts, high-water marks and end-of-run pool occupancy included — so a
// refactor of how a run counts must reproduce the file exactly; a change
// that legitimately moves a count (a protocol or pooling change) regenerates
// it with `go test -run TestGoldenObsReport -update .` and justifies the diff.
func TestGoldenObsReport(t *testing.T) {
	o := goldenOptions()
	o.Observer = NewObserver()
	cmp, err := Compare(o, Baselines(), 100, 200, []int{50, 100, 150, 200})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, set := range cmp.Sets {
		fmt.Fprintf(&sb, "== %s\n%s", set.Protocol, set.Trials[0].Runtime.Report())
	}
	sb.WriteString("== metrics\n")
	if err := o.Observer.WriteMetrics(&sb); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden_obs_200peers.txt", sb.String())
}

// scrapeText renders an Observer's Prometheus dump. It reports a failed
// write with t.Error, so a scraping goroutine may call it.
func scrapeText(t *testing.T, o *Observer) string {
	var sb strings.Builder
	if err := o.WriteMetrics(&sb); err != nil {
		t.Error(err)
	}
	return sb.String()
}

// TestObserverScrapesDuringSweep scrapes one Observer in a loop while a
// 2-worker sweep adds its runs to it: under -race this is the lock on the
// registry's concurrent Add and WritePrometheus. Every scrape must render
// the whole catalogue, and the last one the sweep's full submission count.
func TestObserverScrapesDuringSweep(t *testing.T) {
	sw, err := ParseSweep([]byte(`{
		"name": "scrape", "warmup": 10, "queries": 40, "trials": 2,
		"protocols": ["Flooding", "Locaware"],
		"base": {"peers": 60},
		"axes": [{"param": "ttl", "values": [3, 5]}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	o := sweepOptions()
	o.Workers = 2
	o.Observer = NewObserver()
	families := strings.Count(scrapeText(t, o.Observer), "# TYPE ")

	done := make(chan struct{})
	scrapes := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-done:
				scrapes <- n
				return
			default:
			}
			if got := strings.Count(scrapeText(t, o.Observer), "# TYPE "); got != families {
				t.Errorf("a scrape during the sweep rendered %d families, want %d", got, families)
			}
			n++
		}
	}()
	res, err := RunSweep(o, sw)
	close(done)
	if n := <-scrapes; n == 0 {
		t.Error("no scrape ran during the sweep")
	}
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("\nprotocol_queries_submitted_total %d\n", res.Runs()*(sw.Warmup()+sw.Queries()))
	if got := scrapeText(t, o.Observer); !strings.Contains(got, want) {
		t.Fatalf("after the sweep the Observer's dump lacks %q:\n%s", want, got)
	}
}
