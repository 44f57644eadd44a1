package sim

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestTimeConversions(t *testing.T) {
	if FromMillis(1.5) != 1500*Microsecond {
		t.Fatalf("FromMillis(1.5) = %v", FromMillis(1.5))
	}
	if FromMillis(-3) != 0 {
		t.Fatalf("negative millis should clamp to zero")
	}
	if FromSeconds(2) != 2*Second {
		t.Fatalf("FromSeconds(2) = %v", FromSeconds(2))
	}
	if got := (1500 * Millisecond).Seconds(); got != 1.5 {
		t.Fatalf("Seconds() = %v", got)
	}
	if got := (2500 * Microsecond).Milliseconds(); got != 2.5 {
		t.Fatalf("Milliseconds() = %v", got)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500 * Microsecond, "500us"},
		{2 * Millisecond, "2.000ms"},
		{3 * Second, "3.000s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("%d.String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

// fn adapts a closure to Event, so test bodies can stay closure-style
// although the engine has no closure path of its own.
type fn func(*Engine)

func (f fn) Fire(e *Engine) { f(e) }

// countEvent is a minimal pooled-style event: it appends its tag to a
// shared log and optionally posts a follow-up on the delivering engine.
type countEvent struct {
	log  *[]int
	tag  int
	next *countEvent
	in   Time
}

func (ev *countEvent) Fire(e *Engine) {
	*ev.log = append(*ev.log, ev.tag)
	if ev.next != nil {
		e.PostEvent(ev.in, ev.next)
	}
}

func (ev *countEvent) EventName() string { return "count" }

type anonEvent struct{}

func (anonEvent) Fire(*Engine) {}

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.PostEvent(30*Millisecond, fn(func(*Engine) { got = append(got, 3) }))
	e.PostEvent(10*Millisecond, fn(func(*Engine) { got = append(got, 1) }))
	e.PostEvent(20*Millisecond, fn(func(*Engine) { got = append(got, 2) }))
	e.Run(0)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("delivery order = %v", got)
	}
	if e.Now() != 30*Millisecond {
		t.Fatalf("clock = %v, want 30ms", e.Now())
	}
}

func TestTypedEventDispatch(t *testing.T) {
	e := NewEngine()
	var log []int
	b := &countEvent{log: &log, tag: 2}
	a := &countEvent{log: &log, tag: 1, next: b, in: 5 * Millisecond}
	e.PostEvent(10*Millisecond, a)
	if n := e.Run(0); n != 2 {
		t.Fatalf("delivered %d events, want 2", n)
	}
	if len(log) != 2 || log[0] != 1 || log[1] != 2 {
		t.Fatalf("log = %v", log)
	}
	if e.Now() != 15*Millisecond {
		t.Fatalf("clock = %v, want 15ms", e.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 50; i++ {
		i := i
		e.PostEvent(5*Millisecond, fn(func(*Engine) { got = append(got, i) }))
	}
	e.Run(0)
	if len(got) != 50 || !sort.IntsAreSorted(got) {
		t.Fatalf("same-instant events not FIFO: %v", got)
	}
}

func TestSchedulePastRejected(t *testing.T) {
	e := NewEngine()
	e.PostEvent(10*Millisecond, anonEvent{})
	e.Run(0)
	if err := e.PostEventAt(5*Millisecond, anonEvent{}); err != ErrPast {
		t.Fatalf("PostEventAt: expected ErrPast, got %v", err)
	}
	defer func() {
		if r := recover(); r != ErrPast {
			t.Fatalf("PostEvent(-1) panicked with %v, want ErrPast", r)
		}
	}()
	e.PostEvent(-1, anonEvent{})
}

func TestZeroDelayRunsAtCurrentInstant(t *testing.T) {
	e := NewEngine()
	fired := false
	e.PostEvent(10*Millisecond, fn(func(eng *Engine) {
		eng.PostEvent(0, fn(func(*Engine) { fired = true }))
	}))
	e.Run(0)
	if !fired {
		t.Fatal("zero-delay follow-up did not fire")
	}
	if e.Now() != 10*Millisecond {
		t.Fatalf("clock advanced unexpectedly: %v", e.Now())
	}
}

func TestRunUntilDeadline(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, d := range []Time{10, 20, 30, 40} {
		e.PostEvent(d*Millisecond, fn(func(eng *Engine) { got = append(got, eng.Now()) }))
	}
	n := e.RunUntil(25*Millisecond, 0)
	if n != 2 {
		t.Fatalf("delivered %d events, want 2", n)
	}
	if e.Now() != 25*Millisecond {
		t.Fatalf("clock = %v, want 25ms (advanced to deadline)", e.Now())
	}
	n = e.RunUntil(100*Millisecond, 0)
	if n != 2 {
		t.Fatalf("second phase delivered %d, want 2", n)
	}
}

func TestMaxEvents(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 0; i < 10; i++ {
		e.PostEvent(Time(i)*Millisecond, fn(func(*Engine) { count++ }))
	}
	if n := e.Run(4); n != 4 || count != 4 {
		t.Fatalf("Run(4) delivered %d, handler ran %d times", n, count)
	}
	if n := e.Run(0); n != 6 {
		t.Fatalf("resumed run delivered %d, want 6", n)
	}
}

// TestHorizonBoundsQueuedEvents: a horizon set after an event beyond it was
// queued — here by an event, as a run learns its end — still ends Run at the
// horizon. The late event stays queued, undelivered, and the clock rests on
// the horizon.
func TestHorizonBoundsQueuedEvents(t *testing.T) {
	e := NewEngine()
	var fired []Time
	e.PostEvent(90*Millisecond, fn(func(eng *Engine) { fired = append(fired, eng.Now()) }))
	e.PostEvent(10*Millisecond, fn(func(eng *Engine) {
		fired = append(fired, eng.Now())
		eng.SetHorizon(50 * Millisecond)
	}))
	e.PostEvent(40*Millisecond, fn(func(eng *Engine) { fired = append(fired, eng.Now()) }))
	if n := e.Run(0); n != 2 || !slices.Equal(fired, []Time{10 * Millisecond, 40 * Millisecond}) {
		t.Fatalf("delivered %d events at %v, want 2 at [10ms 40ms]", n, fired)
	}
	if e.Len() != 1 {
		t.Fatalf("queue holds %d events, want the one beyond the horizon", e.Len())
	}
	if e.Now() != 50*Millisecond {
		t.Fatalf("clock = %v, want the 50ms horizon", e.Now())
	}
}

func TestHorizonDropsLateEvents(t *testing.T) {
	e := NewEngine()
	e.SetHorizon(50 * Millisecond)
	fired := 0
	e.PostEvent(40*Millisecond, fn(func(*Engine) { fired++ }))
	e.PostEvent(60*Millisecond, fn(func(*Engine) { fired++ }))
	if err := e.PostEventAt(60*Millisecond, fn(func(*Engine) { fired++ })); err != nil {
		t.Fatalf("horizon drop should not error: %v", err)
	}
	if e.Scheduled() != 1 {
		t.Fatalf("scheduled = %d, want 1 (horizon drops are not queued)", e.Scheduled())
	}
	e.Run(0)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
}

func TestProcessedScheduledCounters(t *testing.T) {
	e := NewEngine()
	e.PostEvent(Millisecond, anonEvent{})
	e.PostEvent(2*Millisecond, anonEvent{})
	e.RunUntil(Millisecond, 0)
	if e.Scheduled() != 2 {
		t.Fatalf("scheduled = %d, want 2", e.Scheduled())
	}
	if e.Processed() != 1 {
		t.Fatalf("processed = %d, want 1", e.Processed())
	}
}

// TestPostEventZeroAlloc locks the hot path: scheduling and firing a
// pooled event allocates nothing in steady state (the queue entry holds the
// event itself, and a pointer-typed Event in the interface field does not
// box).
func TestPostEventZeroAlloc(t *testing.T) {
	e := NewEngine()
	var log []int
	ev := &countEvent{log: &log, tag: 0}
	// Warm the queue's and the log's capacity.
	e.PostEvent(Millisecond, ev)
	e.Run(0)
	log = log[:0]
	n := testing.AllocsPerRun(200, func() {
		log = log[:0]
		e.PostEvent(Millisecond, ev)
		e.Run(0)
	})
	if n != 0 {
		t.Fatalf("PostEvent+Run allocated %.1f per cycle, want 0", n)
	}
}

func TestEventName(t *testing.T) {
	if got := EventName(&countEvent{}); got != "count" {
		t.Fatalf("EventName(named) = %q", got)
	}
	if got := EventName(anonEvent{}); got != "sim.anonEvent" {
		t.Fatalf("EventName(unnamed) = %q", got)
	}
}

// TestObserverSeesTypedEvents: the observer and the per-kind tally behind
// sim_events_total{kind} see each delivered event as itself.
func TestObserverSeesTypedEvents(t *testing.T) {
	e := NewEngine()
	e.CountKinds()
	var names []string
	var ats []Time
	e.SetObserver(func(at Time, ev Event) {
		names = append(names, EventName(ev))
		ats = append(ats, at)
	})
	var log []int
	e.PostEvent(2*Millisecond, &countEvent{log: &log, tag: 1})
	e.PostEvent(3*Millisecond, &countEvent{log: &log, tag: 2})
	e.PostEvent(4*Millisecond, anonEvent{})
	e.Run(0)
	if want := []string{"count", "count", "sim.anonEvent"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("observer saw %v, want %v", names, want)
	}
	if want := []Time{2 * Millisecond, 3 * Millisecond, 4 * Millisecond}; !reflect.DeepEqual(ats, want) {
		t.Fatalf("observer times %v, want %v", ats, want)
	}
	if want := map[string]uint64{"count": 2, "event": 1}; !reflect.DeepEqual(e.EventsByKind(), want) {
		t.Fatalf("events by kind = %v, want %v", e.EventsByKind(), want)
	}
}

// TestHeapPropertyQuick drives the queue with random timestamps and checks
// events come out in non-decreasing time order with FIFO tie-breaks.
func TestHeapPropertyQuick(t *testing.T) {
	prop := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		e := NewEngine()
		type rec struct {
			at  Time
			seq int
		}
		var got []rec
		for i, d := range delays {
			i := i
			e.PostEvent(Time(d), fn(func(eng *Engine) {
				got = append(got, rec{eng.Now(), i})
			}))
		}
		e.Run(0)
		if len(got) != len(delays) {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i].at < got[i-1].at {
				return false
			}
			if got[i].at == got[i-1].at && got[i].seq < got[i-1].seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQueueRandomizedPushPop(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	var q eventQueue
	const n = 2000
	for i := 0; i < n; i++ {
		q.push(qent{at: Time(r.Intn(1000)), seq: uint64(i)})
	}
	var prev qent
	for i := 0; i < n; i++ {
		ev, ok := q.pop()
		if !ok {
			t.Fatalf("queue exhausted early at %d", i)
		}
		if i > 0 && qentLess(ev, prev) {
			t.Fatalf("ordering violated: (%d,%d) after (%d,%d)", ev.at, ev.seq, prev.at, prev.seq)
		}
		prev = ev
	}
	if _, ok := q.pop(); ok {
		t.Fatal("queue should be empty")
	}
	if q.Len() != 0 {
		t.Fatalf("Len = %d after draining", q.Len())
	}
}

// TestQueuePopClearsVacatedSlot: the slot a pop vacates at the tail of the
// heap's backing array must not keep its event reachable.
func TestQueuePopClearsVacatedSlot(t *testing.T) {
	var q eventQueue
	const n = 100
	for i := 0; i < n; i++ {
		q.push(qent{at: Time((i * 37) % n), seq: uint64(i), ev: anonEvent{}})
	}
	for popped := 1; popped <= n; popped++ {
		if e, ok := q.pop(); !ok || e.ev == nil {
			t.Fatalf("pop %d lost its event", popped)
		}
		for i, e := range q.ents[:n] {
			if live := i < n-popped; (e.ev != nil) != live {
				t.Fatalf("after %d pops slot %d holds event=%v, want live=%v", popped, i, e.ev != nil, live)
			}
		}
	}
}

func TestRNGStreamsIndependentAndReproducible(t *testing.T) {
	r1 := NewRNG(7)
	r2 := NewRNG(7)
	a := r1.Stream("workload")
	b := r2.Stream("workload")
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same (seed,name) streams diverged")
		}
	}
	c := NewRNG(7).Stream("topology")
	d := NewRNG(7).Stream("workload")
	same := true
	for i := 0; i < 16; i++ {
		if c.Int63() != d.Int63() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("differently named streams produced identical output")
	}
	if NewRNG(7).Seed() != 7 {
		t.Fatal("Seed() mismatch")
	}
}
