package bloom

import (
	"fmt"
	"testing"
)

func benchWords(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("kw%05d", i)
	}
	return out
}

func BenchmarkFilterAdd(b *testing.B) {
	f := paperFilter()
	words := benchWords(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Add(words[i&1023])
	}
}

func BenchmarkFilterTest(b *testing.B) {
	f := paperFilter()
	words := benchWords(1024)
	for _, w := range words[:150] {
		f.Add(w)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Test(words[i&1023])
	}
}

// BenchmarkFilterTestIndexesQuery is one neighbour filter against a
// three-keyword query already hashed to its positions — the per-neighbour
// cost of Bloom routing.
func BenchmarkFilterTestIndexesQuery(b *testing.B) {
	f := paperFilter()
	words := benchWords(150)
	for _, w := range words {
		f.Add(w)
	}
	var query []uint32
	for _, w := range []string{words[3], words[77], words[149]} {
		query = f.AppendIndexes(query, w)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.TestIndexes(query)
	}
}

func BenchmarkCountingAddRemove(b *testing.B) {
	c := NewCounting(1200, 6)
	words := benchWords(256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := words[i&255]
		c.Add(w)
		c.Remove(w)
	}
}

// BenchmarkSnapshotAndDiff measures one publish from the live view: two
// filenames' worth of keyword changes, then mark check, diff against the
// published copy, copy, mark clear — what a changed peer pays per round.
func BenchmarkSnapshotAndDiff(b *testing.B) {
	c := NewCounting(1200, 6)
	for _, w := range benchWords(60) {
		c.Add(w)
	}
	published := c.View().Clone()
	var buf []uint32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i&1 == 0 {
			c.Add("extra-one")
			c.Add("extra-two")
		} else {
			c.Remove("extra-one")
			c.Remove("extra-two")
		}
		if !c.Changed() {
			b.Fatal("mark not raised")
		}
		d, err := DiffFiltersInto(published, c.View(), buf)
		if err != nil || d.Empty() {
			b.Fatal("no delta", err)
		}
		buf = d.Flipped[:0]
		_ = published.CopyFrom(c.View())
		c.ClearChanged()
	}
}

// BenchmarkBloomSizing reports the measured false-positive rate of each
// candidate filter size at the paper's worst-case load (a full response
// index: 50 filenames × 3 keywords = 150 elements). This is the
// data-structure-level justification for §5.1's 1200-bit choice.
func BenchmarkBloomSizing(b *testing.B) {
	// k is the false-positive optimum for 150 elements, round((m/150) ln 2).
	for _, g := range []struct{ bits, k int }{{300, 1}, {600, 3}, {1200, 6}, {2400, 11}} {
		b.Run(fmt.Sprintf("bits=%d", g.bits), func(b *testing.B) {
			for iter := 0; iter < b.N; iter++ {
				f := New(g.bits, g.k)
				for _, w := range benchWords(150) {
					f.Add(w)
				}
				fp := 0
				const probes = 10000
				for i := 0; i < probes; i++ {
					if f.Test(fmt.Sprintf("absent%05d", i)) {
						fp++
					}
				}
				b.ReportMetric(float64(fp)/probes, "fpr")
				b.ReportMetric(f.FillRatio(), "fill")
			}
		})
	}
}
