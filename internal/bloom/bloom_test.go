package bloom

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// paperFilter returns the filter configured exactly as in §5.1: 1200 bits,
// k optimal for 150 keywords.
func paperFilter() *Filter { return New(1200, 6) }

func TestNoFalseNegatives(t *testing.T) {
	f := paperFilter()
	var added []string
	for i := 0; i < 150; i++ {
		s := fmt.Sprintf("keyword-%d", i)
		f.Add(s)
		added = append(added, s)
	}
	for _, s := range added {
		if !f.Test(s) {
			t.Fatalf("false negative for %q", s)
		}
	}
}

func TestNoFalseNegativesQuick(t *testing.T) {
	prop := func(words []string) bool {
		f := New(1200, 6)
		for _, w := range words {
			f.Add(w)
		}
		for _, w := range words {
			if !f.Test(w) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFalsePositiveRateReasonable(t *testing.T) {
	// Paper setting: 1200 bits for 150 keywords gives a usable FPR.
	f := paperFilter()
	for i := 0; i < 150; i++ {
		f.Add(fmt.Sprintf("kw-%d", i))
	}
	fp := 0
	const probes = 20000
	for i := 0; i < probes; i++ {
		if f.Test(fmt.Sprintf("absent-%d", i)) {
			fp++
		}
	}
	rate := float64(fp) / probes
	if rate > 0.05 {
		t.Fatalf("FPR %.4f too high for paper configuration", rate)
	}
}

// matchesAll is the "BF matches q" predicate of §4.2 in the form routing
// uses it: the positions of every keyword, hashed once and concatenated,
// tested in one pass.
func matchesAll(f *Filter, ss []string) bool {
	var idx []uint32
	for _, s := range ss {
		idx = f.AppendIndexes(idx, s)
	}
	return f.TestIndexes(idx)
}

func TestTestAll(t *testing.T) {
	f := New(1200, 6)
	f.Add("alpha")
	f.Add("beta")
	if !matchesAll(f, []string{"alpha", "beta"}) {
		t.Fatal("all-keywords false negative")
	}
	if matchesAll(f, []string{"alpha", "definitely-not-present-xyzzy-42"}) {
		// Could be a false positive; retry with a fresh improbable word set.
		misses := 0
		for i := 0; i < 100; i++ {
			if !matchesAll(f, []string{"alpha", fmt.Sprintf("zzz-%d", i)}) {
				misses++
			}
		}
		if misses == 0 {
			t.Fatal("all-keywords test never rejects absent keywords")
		}
	}
	if !matchesAll(f, nil) {
		t.Fatal("empty query should match vacuously")
	}
}

// checkIndexFormAgrees requires the string and index forms of a probe to
// agree on a filter of geometry (m, k) holding added,
// for every probe string; it also pins AppendIndexes' contract (appends
// exactly K positions below M, leaves dst's prefix alone).
func checkIndexFormAgrees(t *testing.T, m, k int, added, probes []string) {
	t.Helper()
	f := New(m, k)
	for _, s := range added {
		f.Add(s)
	}
	for _, s := range probes {
		idx := f.AppendIndexes([]uint32{7}, s)
		if len(idx) != 1+f.K() || idx[0] != 7 {
			t.Fatalf("m=%d k=%d: AppendIndexes(%q) = %v, want prefix [7] + %d positions", m, k, s, idx, f.K())
		}
		idx = idx[1:]
		for _, i := range idx {
			if i >= f.m {
				t.Fatalf("m=%d k=%d: position %d of %q out of range", m, k, i, s)
			}
		}
		if got, want := f.TestIndexes(idx), f.Test(s); got != want {
			t.Fatalf("m=%d k=%d: Filter.TestIndexes(%q) = %v, Test = %v", m, k, s, got, want)
		}
	}
}

// TestIndexFormEquivalence is the property the query path stands on: a
// keyword hashed once at submission and tested by position answers exactly
// what hashing it again at every filter would, over random geometries
// m ∈ [8, 4096], k ∈ [1, 16] and random strings, members and not.
func TestIndexFormEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	word := func() string {
		b := make([]byte, r.Intn(12))
		for i := range b {
			b[i] = byte(r.Intn(256))
		}
		return string(b)
	}
	for trial := 0; trial < 300; trial++ {
		m, k := 8+r.Intn(4089), 1+r.Intn(16)
		added := make([]string, r.Intn(40))
		for i := range added {
			added[i] = word()
		}
		probes := append([]string{"", "locaware"}, added...)
		for i := 0; i < 40; i++ {
			probes = append(probes, word())
		}
		checkIndexFormAgrees(t, m, k, added, probes)
	}
}

// FuzzIndexFormEquivalence lets the fuzzer pick geometry, contents and
// probe; seeded with the shapes the property test draws.
func FuzzIndexFormEquivalence(f *testing.F) {
	f.Add(uint16(1200), uint8(6), "kw00001 kw00002 kw00003", "kw00002")
	f.Add(uint16(8), uint8(16), "a b c d e f g h", "z")
	f.Add(uint16(4096), uint8(1), "", "")
	f.Add(uint16(0), uint8(0), "x", "x")
	f.Fuzz(func(t *testing.T, m uint16, k uint8, added, probe string) {
		if m > 4096 {
			m = 4096
		}
		words := strings.Fields(added)
		checkIndexFormAgrees(t, int(m), int(k), words, append(words, probe))
	})
}

func TestGeometryClamps(t *testing.T) {
	f := New(0, 0)
	if f.m < 8 || f.K() < 1 {
		t.Fatalf("clamps not applied: m=%d k=%d", f.m, f.K())
	}
	f.Add("x")
	if !f.Test("x") {
		t.Fatal("tiny filter broken")
	}
}

// TestTableWindowsAreDisjoint: the filters of a table share one bits
// array, each in a window capped at its own words, so setting every bit of
// filter i leaves i-1 and i+1 empty, and an append to i's words cannot
// reach i+1's. A geometry whose m is not a multiple of 64 leaves a partial
// last word, the place a miscut window would spill into.
func TestTableWindowsAreDisjoint(t *testing.T) {
	const n, m = 5, 1000
	fs := NewTable(n, m, 6)
	for i := range fs {
		if len(fs[i].bits) != (m+63)/64 || cap(fs[i].bits) != len(fs[i].bits) {
			t.Fatalf("filter %d: window len %d cap %d, want both %d", i, len(fs[i].bits), cap(fs[i].bits), (m+63)/64)
		}
	}
	for i := range fs {
		for j := range fs {
			fs[j].Reset()
		}
		for w := 0; w < 300; w++ {
			fs[i].Add(fmt.Sprintf("filter-%d-word-%d", i, w))
		}
		fs[i].bits[len(fs[i].bits)-1] = ^uint64(0) // the last word's tail too
		for _, j := range []int{i - 1, i + 1} {
			if j >= 0 && j < n && fs[j].PopCount() != 0 {
				t.Fatalf("bits set in filter %d show in filter %d", i, j)
			}
		}
		grown := append(fs[i].bits, ^uint64(0))
		if i+1 < n && (&grown[0] == &fs[i].bits[0] || fs[i+1].PopCount() != 0) {
			t.Fatalf("append to filter %d's words wrote into filter %d's", i, i+1)
		}
	}
	if one := New(m, 6); len(one.bits) != cap(one.bits) || int(one.m) != m || one.K() != 6 {
		t.Fatalf("New(%d, 6) = %v with %d/%d words, want a one-filter table", m, one, len(one.bits), cap(one.bits))
	}
}

// clone returns an independent copy of f.
func clone(f *Filter) *Filter {
	cp := New(int(f.m), f.K())
	_ = cp.CopyFrom(f)
	return cp
}

func TestCloneEqual(t *testing.T) {
	f := New(1200, 6)
	f.Add("one")
	f.Add("two")
	g := clone(f)
	if !f.Equal(g) {
		t.Fatal("clone not equal")
	}
	g.Add("three")
	if f.Equal(g) && g.PopCount() != f.PopCount() {
		t.Fatal("clone shares storage")
	}
	if f.Equal(New(600, 6)) {
		t.Fatal("different geometry reported equal")
	}
	if f.Equal(New(1200, 4)) {
		t.Fatal("different k reported equal")
	}
}

func TestCopyFrom(t *testing.T) {
	f, g := New(1200, 6), New(1200, 6)
	g.Add("payload")
	if err := f.CopyFrom(g); err != nil {
		t.Fatal(err)
	}
	if !f.Equal(g) {
		t.Fatal("CopyFrom incomplete")
	}
	if err := f.CopyFrom(New(600, 6)); err != ErrMismatch {
		t.Fatalf("expected ErrMismatch, got %v", err)
	}
}

func TestPopCountFillRatio(t *testing.T) {
	f := New(128, 1)
	if f.PopCount() != 0 || f.FillRatio() != 0 {
		t.Fatal("fresh filter not empty")
	}
	f.Add("a")
	if f.PopCount() != 1 {
		t.Fatalf("k=1 add set %d bits", f.PopCount())
	}
}

func TestStringer(t *testing.T) {
	if New(1200, 6).String() == "" {
		t.Fatal("empty String")
	}
}

// TestReset: a reset filter is empty, keeps its geometry and, re-fed a
// live set, equals a fresh filter fed the same set — the rebuild a peer
// runs in place of §4.2's counting-filter deletes.
func TestReset(t *testing.T) {
	f, fresh := New(1200, 6), New(1200, 6)
	for _, w := range []string{"a", "b", "c", "d"} {
		f.Add(w)
	}
	f.Reset()
	if f.PopCount() != 0 || f.m != 1200 || f.K() != 6 {
		t.Fatalf("reset left %v", f)
	}
	for _, w := range []string{"b", "d"} {
		f.Add(w)
		fresh.Add(w)
	}
	if !f.Equal(fresh) {
		t.Fatal("rebuilt filter differs from a fresh filter of the live set")
	}
}

// applyDelta flips d's positions in f: the receiver's side of a gossiped
// delta, which the simulator models by copying the sender's filter.
func applyDelta(d Delta, f *Filter) {
	for _, p := range d.Flipped {
		f.bits[p/64] ^= 1 << (p % 64)
	}
}

func TestDeltaRoundTrip(t *testing.T) {
	oldF := New(1200, 6)
	oldF.Add("alpha")
	newF := clone(oldF)
	newF.Add("beta")
	newF.Add("gamma")

	d, err := DiffFiltersInto(oldF, newF, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.Empty() {
		t.Fatal("delta unexpectedly empty")
	}
	applyDelta(d, oldF)
	if !oldF.Equal(newF) {
		t.Fatal("applying delta did not reproduce new filter")
	}
	// XOR semantics: applying again undoes.
	applyDelta(d, oldF)
	if oldF.Equal(newF) {
		t.Fatal("double apply should undo")
	}
}

func TestDeltaSizeBitsPaperBound(t *testing.T) {
	// Footnote 1: one filename (3 keywords) flips at most 3k bits; with the
	// paper's 1200-bit vector each position costs 11 bits.
	oldF := paperFilter()
	newF := clone(oldF)
	for _, kw := range []string{"one", "two", "three"} {
		newF.Add(kw)
	}
	d, err := DiffFiltersInto(oldF, newF, nil)
	if err != nil {
		t.Fatal(err)
	}
	perPos := 11 // ceil(log2(1200))
	if d.SizeBits() != len(d.Flipped)*perPos {
		t.Fatalf("SizeBits = %d, want %d", d.SizeBits(), len(d.Flipped)*perPos)
	}
	if len(d.Flipped) > 3*oldF.K() {
		t.Fatalf("one filename flipped %d bits, more than 3k=%d", len(d.Flipped), 3*oldF.K())
	}
}

func TestDeltaEmpty(t *testing.T) {
	f := New(1200, 6)
	d, err := DiffFiltersInto(f, clone(f), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Empty() || d.SizeBits() != 0 {
		t.Fatal("identical filters should give empty delta")
	}
}

func TestDeltaMismatch(t *testing.T) {
	if _, err := DiffFiltersInto(New(1200, 6), New(600, 6), nil); err != ErrMismatch {
		t.Fatalf("size mismatch not detected: %v", err)
	}
	if _, err := DiffFiltersInto(New(1200, 6), New(1200, 4), nil); err != ErrMismatch {
		t.Fatalf("k mismatch not detected: %v", err)
	}
}

func TestDeltaQuickProperty(t *testing.T) {
	// Property: for any two word sets, diff+apply transforms old into new.
	prop := func(oldWords, addWords []string) bool {
		oldF := New(1200, 6)
		for _, w := range oldWords {
			oldF.Add(w)
		}
		newF := clone(oldF)
		for _, w := range addWords {
			newF.Add(w)
		}
		d, err := DiffFiltersInto(oldF, newF, nil)
		if err != nil {
			return false
		}
		cp := clone(oldF)
		applyDelta(d, cp)
		return cp.Equal(newF)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHashPairStability(t *testing.T) {
	a1, a2 := hashPair("stable")
	b1, b2 := hashPair("stable")
	if a1 != b1 || a2 != b2 {
		t.Fatal("hashPair not deterministic")
	}
	c1, c2 := hashPair("different")
	if a1 == c1 && a2 == c2 {
		t.Fatal("hashPair collision on trivial input")
	}
}

// TestHotOpsZeroAlloc locks the stack-allocated hashing path: membership
// tests and inserts run on the simulator's per-hop routing path and must
// not allocate.
func TestHotOpsZeroAlloc(t *testing.T) {
	f := New(1200, 6)
	f.Add("locaware")
	if n := testing.AllocsPerRun(200, func() { f.Test("locaware") }); n != 0 {
		t.Fatalf("Filter.Test allocates %.1f/op", n)
	}
	if n := testing.AllocsPerRun(200, func() { f.Add("locaware") }); n != 0 {
		t.Fatalf("Filter.Add allocates %.1f/op", n)
	}
	if n := testing.AllocsPerRun(200, func() { f.Reset(); f.Add("locaware") }); n != 0 {
		t.Fatalf("Filter.Reset allocates %.1f/op", n)
	}
	idx := make([]uint32, 0, 3*f.K())
	if n := testing.AllocsPerRun(200, func() { idx = f.AppendIndexes(idx[:0], "locaware") }); n != 0 {
		t.Fatalf("Filter.AppendIndexes into a sized buffer allocates %.1f/op", n)
	}
	if n := testing.AllocsPerRun(200, func() { f.TestIndexes(idx) }); n != 0 {
		t.Fatalf("TestIndexes allocates %.1f/op", n)
	}
}

// TestDiffFiltersInto checks buffer reuse and equivalence with a nil-buffer
// diff.
func TestDiffFiltersInto(t *testing.T) {
	a, b := New(256, 4), New(256, 4)
	b.Add("alpha")
	b.Add("beta")
	want, err := DiffFiltersInto(a, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]uint32, 0, 64)
	got, err := DiffFiltersInto(a, b, buf)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Flipped, want.Flipped) {
		t.Fatalf("Into diff = %v, want %v", got.Flipped, want.Flipped)
	}
	if &got.Flipped[0] != &buf[:1][0] {
		t.Fatal("DiffFiltersInto did not reuse the caller's buffer")
	}
	if _, err := DiffFiltersInto(a, New(128, 4), buf); err != ErrMismatch {
		t.Fatalf("geometry mismatch not reported: %v", err)
	}
	// Steady-state reuse does not allocate once the buffer has capacity.
	if n := testing.AllocsPerRun(100, func() {
		d, _ := DiffFiltersInto(a, b, buf)
		buf = d.Flipped[:0]
	}); n != 0 {
		t.Fatalf("buffered diff allocates %.1f/op", n)
	}
}

// TestKCapped locks the maxK bound the stack-array fast path relies on.
func TestKCapped(t *testing.T) {
	if f := New(4096, 99); f.K() != 16 {
		t.Fatalf("Filter k = %d, want capped at 16", f.K())
	}
}
