package obs

// Cell groups the instruments of one simulation. Its goroutine increments
// plain (non-atomic) fields on the hot path — no contention, no allocation
// — and Drain, called from that same goroutine, folds the pending values
// into the shared registry atomics. The locals keep lifetime totals so a
// run can snapshot its own contribution even though the registry is shared
// across the concurrent runs of a campaign.
type Cell struct {
	counters []*LocalCounter
	maxes    []*LocalMax
}

// Drain folds every pending local value into its registry sink and
// resets the pending state.
func (c *Cell) Drain() {
	for _, lc := range c.counters {
		lc.drain()
	}
	for _, m := range c.maxes {
		m.drain()
	}
}

// LocalCounter is a cell-confined counter bound to a registry Counter.
type LocalCounter struct {
	pend  uint64
	total uint64
	sink  *Counter
}

// Counter binds a new local counter to sink and registers it for drain.
func (c *Cell) Counter(sink *Counter) *LocalCounter {
	lc := &LocalCounter{sink: sink}
	c.counters = append(c.counters, lc)
	return lc
}

func (l *LocalCounter) Inc()         { l.pend++ }
func (l *LocalCounter) Add(n uint64) { l.pend += n }

// Total is the lifetime count, including undrained increments.
func (l *LocalCounter) Total() uint64 { return l.total + l.pend }

func (l *LocalCounter) drain() {
	if l.pend != 0 {
		l.total += l.pend
		l.sink.Add(l.pend)
		l.pend = 0
	}
}

// LocalMax tracks a cell-confined running maximum (queue depths,
// pending-map sizes) folded into a registry Gauge via SetMax.
type LocalMax struct {
	cur  uint64
	all  uint64
	sink *Gauge
}

// Max binds a new local maximum to sink and registers it for drain.
func (c *Cell) Max(sink *Gauge) *LocalMax {
	m := &LocalMax{sink: sink}
	c.maxes = append(c.maxes, m)
	return m
}

func (m *LocalMax) Observe(v uint64) {
	if v > m.cur {
		m.cur = v
	}
}

// Max is the lifetime maximum, including undrained observations.
func (m *LocalMax) Max() uint64 {
	if m.cur > m.all {
		return m.cur
	}
	return m.all
}

func (m *LocalMax) drain() {
	if m.cur > m.all {
		m.all = m.cur
	}
	if m.all > 0 {
		m.sink.SetMax(int64(m.all))
	}
	m.cur = 0
}

// LocalCounterVec fans a label axis (event kind) out to local counters.
// Get allocates only on the first sighting of a label value; steady
// state is one map lookup and a plain increment.
type LocalCounterVec struct {
	cell    *Cell
	sink    *CounterVec
	byLabel map[string]*LocalCounter
}

// CounterVec binds a new local counter vector to sink.
func (c *Cell) CounterVec(sink *CounterVec) *LocalCounterVec {
	return &LocalCounterVec{cell: c, sink: sink, byLabel: make(map[string]*LocalCounter)}
}

// Get returns the local counter for one label value.
func (v *LocalCounterVec) Get(label string) *LocalCounter {
	if lc, ok := v.byLabel[label]; ok {
		return lc
	}
	lc := v.cell.Counter(v.sink.With(label))
	v.byLabel[label] = lc
	return lc
}

// Totals returns the lifetime count per label value. It allocates; call
// it only from snapshot paths.
func (v *LocalCounterVec) Totals() map[string]uint64 {
	out := make(map[string]uint64, len(v.byLabel))
	for l, lc := range v.byLabel {
		if t := lc.Total(); t != 0 {
			out[l] = t
		}
	}
	return out
}
