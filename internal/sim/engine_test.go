package sim

import (
	"math/rand"
	"reflect"
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

// schedule is ScheduleEvent for a delay the test knows is valid.
func schedule(e *Engine, delay Time, ev Event) *Timer {
	t, err := e.ScheduleEvent(delay, ev)
	if err != nil {
		panic(err)
	}
	return t
}

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

// TestTimerAndPostedEventsShareFIFO: an event queued with a cancellation
// handle and one posted without take their turns in one scheduling order.
func TestTimerAndPostedEventsShareFIFO(t *testing.T) {
	e := NewEngine()
	var log []int
	schedule(e, 5*Millisecond, &countEvent{log: &log, tag: 0})
	e.PostEvent(5*Millisecond, &countEvent{log: &log, tag: 1})
	schedule(e, 5*Millisecond, &countEvent{log: &log, tag: 2})
	e.PostEvent(5*Millisecond, &countEvent{log: &log, tag: 3})
	e.Run(0)
	if len(log) != 4 {
		t.Fatalf("delivered %d events, want 4", len(log))
	}
	for i, v := range log {
		if v != i {
			t.Fatalf("same-instant timer/posted events not FIFO: %v", log)
		}
	}
}

func TestSchedulePastRejected(t *testing.T) {
	e := NewEngine()
	e.PostEvent(10*Millisecond, anonEvent{})
	e.Run(0)
	if _, err := e.ScheduleEventAt(5*Millisecond, anonEvent{}); err != ErrPast {
		t.Fatalf("expected ErrPast, got %v", err)
	}
	if _, err := e.ScheduleEvent(-1, anonEvent{}); err != ErrPast {
		t.Fatalf("expected ErrPast for negative delay, got %v", err)
	}
	if err := e.PostEventAt(5*Millisecond, anonEvent{}); err != ErrPast {
		t.Fatalf("PostEventAt: expected ErrPast, got %v", err)
	}
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

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	tm := schedule(e, 10*Millisecond, fn(func(*Engine) { fired = true }))
	if !tm.Pending() {
		t.Fatal("timer should be pending")
	}
	if !tm.Cancel() {
		t.Fatal("first cancel should succeed")
	}
	if tm.Cancel() {
		t.Fatal("second cancel should report false")
	}
	e.Run(0)
	if fired {
		t.Fatal("cancelled event fired")
	}
	if e.Processed() != 0 {
		t.Fatalf("processed = %d, want 0", e.Processed())
	}
}

// TestScheduleEventCancel is TestCancel through the absolute-time form, with
// a live neighbour at the same instant that must still fire.
func TestScheduleEventCancel(t *testing.T) {
	e := NewEngine()
	var log []int
	tm, err := e.ScheduleEventAt(10*Millisecond, &countEvent{log: &log, tag: 1})
	if err != nil {
		t.Fatal(err)
	}
	keep, err := e.ScheduleEventAt(10*Millisecond, &countEvent{log: &log, tag: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !tm.Pending() || !tm.Cancel() {
		t.Fatal("cancel of a pending timer should report pending")
	}
	e.Run(0)
	if len(log) != 1 || log[0] != 2 {
		t.Fatalf("log = %v, want only the uncancelled event", log)
	}
	if keep.Pending() {
		t.Fatal("fired timer still pending")
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

func TestStop(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 10; i++ {
		e.PostEvent(Time(i)*Millisecond, fn(func(eng *Engine) {
			count++
			if count == 3 {
				eng.Stop()
			}
		}))
	}
	e.Run(0)
	if count != 3 {
		t.Fatalf("stopped after %d events, want 3", count)
	}
	// A subsequent Run resumes.
	e.Run(0)
	if count != 10 {
		t.Fatalf("after resume count = %d, want 10", count)
	}
}

func TestHorizonDropsLateEvents(t *testing.T) {
	e := NewEngine()
	e.SetHorizon(50 * Millisecond)
	fired := 0
	e.PostEvent(40*Millisecond, fn(func(*Engine) { fired++ }))
	e.PostEvent(60*Millisecond, fn(func(*Engine) { fired++ }))
	tm := schedule(e, 60*Millisecond, fn(func(*Engine) { fired++ }))
	if tm.Pending() {
		t.Fatal("beyond-horizon timer should be dead on arrival")
	}
	if e.Scheduled() != 1 {
		t.Fatalf("scheduled = %d, want 1 (horizon drops are not queued)", e.Scheduled())
	}
	e.Run(0)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
}

// TestDrain: drained events never fire, and a handle to one is retired
// with it.
func TestDrain(t *testing.T) {
	e := NewEngine()
	var timers []*Timer
	for i := 0; i < 5; i++ {
		ev := fn(func(*Engine) { t.Fatal("drained event fired") })
		e.PostEvent(Time(i+1)*Millisecond, ev)
		timers = append(timers, schedule(e, Time(i+1)*Millisecond, ev))
	}
	e.Drain()
	if e.Len() != 0 {
		t.Fatalf("queue len = %d after drain", e.Len())
	}
	for _, tm := range timers {
		if tm.Pending() || tm.Cancel() {
			t.Fatal("drained timer still pending")
		}
	}
	for _, qe := range e.queue.ents[:cap(e.queue.ents)] {
		if qe.ev != nil {
			t.Fatal("drained queue still references an event")
		}
	}
	e.Run(0)
}

func TestProcessedScheduledCounters(t *testing.T) {
	e := NewEngine()
	tm := schedule(e, Millisecond, anonEvent{})
	e.PostEvent(2*Millisecond, anonEvent{})
	tm.Cancel()
	e.Run(0)
	if e.Scheduled() != 2 {
		t.Fatalf("scheduled = %d, want 2", e.Scheduled())
	}
	if e.Processed() != 1 {
		t.Fatalf("processed = %d, want 1", e.Processed())
	}
	if e.Cancelled() != 1 {
		t.Fatalf("cancelled = %d, want 1", e.Cancelled())
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
// sim_events_total{kind} see each delivered event as itself — for one
// scheduled with a cancellation handle, the wrapped event, never the Timer.
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
	schedule(e, 3*Millisecond, &countEvent{log: &log, tag: 2})
	schedule(e, 4*Millisecond, anonEvent{})
	schedule(e, 5*Millisecond, &countEvent{log: &log, tag: 3}).Cancel()
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

// TestTimerStaleGenerationInvalidated: a handle held across its event's
// delivery is never pending again, and cancelling it cannot touch an event
// scheduled later.
func TestTimerStaleGenerationInvalidated(t *testing.T) {
	e := NewEngine()
	fired := 0
	bump := fn(func(*Engine) { fired++ })
	t1 := schedule(e, Millisecond, bump)
	e.Run(0)
	if fired != 1 {
		t.Fatal("first event did not fire")
	}
	if t1.Pending() {
		t.Fatal("fired timer still pending")
	}
	t2 := schedule(e, Millisecond, bump)
	if t1.Pending() {
		t.Fatal("fired timer reports pending once a later event is queued")
	}
	if t1.Cancel() {
		t.Fatal("fired timer claims to have cancelled something")
	}
	if !t2.Pending() {
		t.Fatal("cancelling a fired timer killed a later event")
	}
	e.Run(0)
	if fired != 2 {
		t.Fatalf("later event did not fire (fired=%d)", fired)
	}
}

// TestTimerCancelledThenRecycled is the cancel-side variant: the cancelled
// entry is discarded at its turn to pop, and the handle stays dead across
// that and across later scheduling.
func TestTimerCancelledThenRecycled(t *testing.T) {
	e := NewEngine()
	fired := 0
	bump := fn(func(*Engine) { fired++ })
	t1 := schedule(e, Millisecond, bump)
	t1.Cancel()
	e.Run(0)
	if fired != 0 {
		t.Fatal("cancelled event fired")
	}
	if e.Cancelled() != 1 {
		t.Fatalf("cancelled = %d, want 1", e.Cancelled())
	}
	t2 := schedule(e, Millisecond, bump)
	if t1.Pending() || t1.Cancel() {
		t.Fatal("cancelled timer interacts with a later event")
	}
	e.Run(0)
	if fired != 1 || t2.Pending() {
		t.Fatalf("later event lifecycle broken: fired=%d", fired)
	}
}

// TestTimerSafeAfterReap: after a burst of timers has fired, been
// cancelled or been drained and the queue has refilled over the same
// slots, none of the old handles is pending and cancelling them all leaves
// every new event to fire.
func TestTimerSafeAfterReap(t *testing.T) {
	e := NewEngine()
	const n = 1024
	fired := 0
	bump := fn(func(*Engine) { fired++ })
	var old []*Timer
	for i := 0; i < n; i++ {
		tm := schedule(e, Time(i+1), bump)
		if i%3 == 0 {
			tm.Cancel()
		}
		old = append(old, tm)
	}
	e.RunUntil(n/2, 0)
	e.Drain()
	delivered := fired
	for i := 0; i < n; i++ {
		e.PostEvent(Time(i+1), bump)
	}
	for _, tm := range old {
		if tm.Pending() {
			t.Fatal("fired, cancelled or drained timer reports pending")
		}
		if tm.Cancel() {
			t.Fatal("fired, cancelled or drained timer cancelled something")
		}
	}
	e.Run(0)
	if fired != delivered+n {
		t.Fatalf("refilled queue delivered %d events, want %d", fired-delivered, n)
	}
}

// TestDeadTimerFromHorizon covers the horizon-dropped path: scheduling
// beyond the horizon returns a permanently dead timer, not an error.
func TestDeadTimerFromHorizon(t *testing.T) {
	e := NewEngine()
	e.SetHorizon(10 * Millisecond)
	tm, err := e.ScheduleEventAt(20*Millisecond, fn(func(*Engine) { t.Fatal("dropped event fired") }))
	if err != nil {
		t.Fatalf("horizon drop should not error: %v", err)
	}
	if tm.Pending() {
		t.Fatal("horizon-dropped timer reports pending")
	}
	if tm.Cancel() {
		t.Fatal("horizon-dropped timer claims a cancellation")
	}
	te, err := e.ScheduleEvent(20*Millisecond, anonEvent{})
	if err != nil || te.Pending() || te.Cancel() {
		t.Fatalf("relative horizon drop: pending=%v err=%v", te.Pending(), err)
	}
	// The dead timer must never alias a live event.
	live := schedule(e, 5*Millisecond, anonEvent{})
	if tm.Cancel() || !live.Pending() {
		t.Fatal("dead timer affected a live event")
	}
	if n := e.Run(0); n != 1 {
		t.Fatalf("delivered %d events, want 1 (the live one)", n)
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
