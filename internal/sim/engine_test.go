package sim

import (
	"math/rand"
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

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.MustSchedule(30*Millisecond, func(*Engine) { got = append(got, 3) })
	e.MustSchedule(10*Millisecond, func(*Engine) { got = append(got, 1) })
	e.MustSchedule(20*Millisecond, func(*Engine) { got = append(got, 2) })
	e.Run(0)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("delivery order = %v", got)
	}
	if e.Now() != 30*Millisecond {
		t.Fatalf("clock = %v, want 30ms", e.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 50; i++ {
		i := i
		e.MustSchedule(5*Millisecond, func(*Engine) { got = append(got, i) })
	}
	e.Run(0)
	if !sort.IntsAreSorted(got) {
		t.Fatalf("same-instant events not FIFO: %v", got)
	}
}

func TestSchedulePastRejected(t *testing.T) {
	e := NewEngine()
	e.MustSchedule(10*Millisecond, func(*Engine) {})
	e.Run(0)
	if _, err := e.ScheduleAt(5*Millisecond, func(*Engine) {}); err != ErrPast {
		t.Fatalf("expected ErrPast, got %v", err)
	}
	if _, err := e.Schedule(-1, func(*Engine) {}); err != ErrPast {
		t.Fatalf("expected ErrPast for negative delay, got %v", err)
	}
}

func TestZeroDelayRunsAtCurrentInstant(t *testing.T) {
	e := NewEngine()
	fired := false
	e.MustSchedule(10*Millisecond, func(eng *Engine) {
		eng.MustSchedule(0, func(*Engine) { fired = true })
	})
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
	tm := e.MustSchedule(10*Millisecond, func(*Engine) { fired = true })
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

func TestRunUntilDeadline(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, d := range []Time{10, 20, 30, 40} {
		d := d
		e.MustSchedule(d*Millisecond, func(eng *Engine) { got = append(got, eng.Now()) })
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
		e.MustSchedule(Time(i)*Millisecond, func(*Engine) { count++ })
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
		e.MustSchedule(Time(i)*Millisecond, func(eng *Engine) {
			count++
			if count == 3 {
				eng.Stop()
			}
		})
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

func TestEvery(t *testing.T) {
	e := NewEngine()
	ticks := 0
	e.Every(10*Millisecond, func(*Engine) bool {
		ticks++
		return ticks < 5
	})
	e.Run(0)
	if ticks != 5 {
		t.Fatalf("ticks = %d, want 5", ticks)
	}
	if e.Now() != 50*Millisecond {
		t.Fatalf("clock = %v, want 50ms", e.Now())
	}
}

func TestEveryCancel(t *testing.T) {
	e := NewEngine()
	ticks := 0
	tm := e.Every(10*Millisecond, func(*Engine) bool {
		ticks++
		return true
	})
	e.MustSchedule(35*Millisecond, func(*Engine) { tm.Cancel() })
	e.RunUntil(200*Millisecond, 0)
	if ticks != 3 {
		t.Fatalf("ticks = %d, want 3 (cancelled at 35ms)", ticks)
	}
}

func TestEveryPanicsOnBadPeriod(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive period")
		}
	}()
	NewEngine().Every(0, func(*Engine) bool { return false })
}

func TestHorizonDropsLateEvents(t *testing.T) {
	e := NewEngine()
	e.SetHorizon(50 * Millisecond)
	fired := 0
	e.MustSchedule(40*Millisecond, func(*Engine) { fired++ })
	tm := e.MustSchedule(60*Millisecond, func(*Engine) { fired++ })
	if tm.Pending() {
		t.Fatal("beyond-horizon timer should be dead on arrival")
	}
	e.Run(0)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
}

func TestDrain(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 5; i++ {
		e.MustSchedule(Time(i+1)*Millisecond, func(*Engine) { t.Fatal("drained event fired") })
	}
	e.Drain()
	if e.Len() != 0 {
		t.Fatalf("queue len = %d after drain", e.Len())
	}
	e.Run(0)
}

func TestProcessedScheduledCounters(t *testing.T) {
	e := NewEngine()
	tm := e.MustSchedule(Millisecond, func(*Engine) {})
	e.MustSchedule(2*Millisecond, func(*Engine) {})
	tm.Cancel()
	e.Run(0)
	if e.Scheduled() != 2 {
		t.Fatalf("scheduled = %d, want 2", e.Scheduled())
	}
	if e.Processed() != 1 {
		t.Fatalf("processed = %d, want 1", e.Processed())
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
			i, at := i, Time(d)
			e.MustSchedule(at, func(eng *Engine) {
				got = append(got, rec{eng.Now(), i})
			})
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

func TestRNGStreamN(t *testing.T) {
	r := NewRNG(11)
	a := r.StreamN("peer", 0)
	b := r.StreamN("peer", 1)
	if a.Int63() == b.Int63() && a.Int63() == b.Int63() && a.Int63() == b.Int63() {
		t.Fatal("indexed streams look identical")
	}
	x := NewRNG(11).StreamN("peer", 5)
	y := NewRNG(11).StreamN("peer", 5)
	for i := 0; i < 50; i++ {
		if x.Int63() != y.Int63() {
			t.Fatal("StreamN not reproducible")
		}
	}
}
