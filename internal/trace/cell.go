package trace

// Cell is a per-shard trace buffer, mirroring the internal/obs cell
// pattern: protocol code running on a shard's goroutine appends events to
// its own cell with no synchronisation, and the Collector merges all cells
// at the sequential epoch barrier. Because each shard's event sequence is
// identical whether the epoch drained in parallel or sequentially (the PR 6
// determinism lock), the merged stream — and therefore everything a sink
// sees — is byte-identical in both drain modes, so tracing no longer forces
// the sequential drain.
//
// The backing slice is retained across epochs, so steady-state emission is
// an append into reused capacity.
type Cell struct {
	buf []Event
}

// Emit appends an event to the cell. Safe only from the owning shard's
// goroutine (or any sequential section).
func (c *Cell) Emit(e Event) { c.buf = append(c.buf, e) }

// Collector owns one Cell per shard and flushes them, merged in ascending
// (time, QueryID, shard) order, into a single sink at sequential points.
type Collector struct {
	sink  Tracer
	cells []Cell
}

// NewCollector returns a collector with one cell per shard feeding sink.
func NewCollector(sink Tracer, shards int) *Collector {
	if shards < 1 {
		shards = 1
	}
	return &Collector{sink: sink, cells: make([]Cell, shards)}
}

// Cell returns the i-th shard's cell. The pointer is stable for the
// collector's lifetime.
func (c *Collector) Cell(i int) *Cell { return &c.cells[i] }

// eventLess orders the merged stream: ascending time, then QueryID, with
// the caller's shard order breaking exact ties.
func eventLess(a, b Event) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	return a.Query < b.Query
}

// Flush drains every cell into the sink in ascending (time, QueryID,
// shard) order and resets the cells, retaining their capacity. Must be
// called from a sequential section (the epoch barrier or end of run).
//
// Each cell arrives nondecreasing in time (its shard's engine delivers in
// time order), so the per-cell ordering pass is a near-linear insertion
// sort that only reorders same-instant events, and the cross-cell pass is
// an allocation-free k-way merge.
func (c *Collector) Flush() {
	n := 0
	for i := range c.cells {
		sortEvents(c.cells[i].buf)
		n += len(c.cells[i].buf)
	}
	if n == 0 {
		return
	}
	// k-way merge over the cells' heads; lowest shard index wins ties.
	heads := make([]int, 0, 8) // small, stack-allocated for <= 8 shards
	for range c.cells {
		heads = append(heads, 0)
	}
	for emitted := 0; emitted < n; emitted++ {
		best := -1
		for i := range c.cells {
			if heads[i] >= len(c.cells[i].buf) {
				continue
			}
			if best < 0 || eventLess(c.cells[i].buf[heads[i]], c.cells[best].buf[heads[best]]) {
				best = i
			}
		}
		c.sink.Emit(c.cells[best].buf[heads[best]])
		heads[best]++
	}
	for i := range c.cells {
		c.cells[i].buf = c.cells[i].buf[:0]
	}
}

// sortEvents stable-sorts events by (At, Query) with insertion sort: the
// input is already nondecreasing in At, so this touches only same-instant
// runs and allocates nothing.
func sortEvents(evs []Event) {
	for i := 1; i < len(evs); i++ {
		for j := i; j > 0 && eventLess(evs[j], evs[j-1]); j-- {
			evs[j], evs[j-1] = evs[j-1], evs[j]
		}
	}
}
