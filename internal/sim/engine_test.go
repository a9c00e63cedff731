package sim

import (
	"context"
	"errors"
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.Schedule(3*time.Second, "c", func() { got = append(got, 3) })
	e.Schedule(1*time.Second, "a", func() { got = append(got, 1) })
	e.Schedule(2*time.Second, "b", func() { got = append(got, 2) })
	if err := e.Run(0); err != nil {
		t.Fatalf("run: %v", err)
	}
	want := []int{1, 2, 3}
	for i, v := range want {
		if got[i] != v {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 3*time.Second {
		t.Errorf("Now() = %v, want 3s", e.Now())
	}
}

func TestFIFOAmongEqualTimes(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Second, "x", func() { got = append(got, i) })
	}
	if err := e.Run(0); err != nil {
		t.Fatalf("run: %v", err)
	}
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("equal-time events not FIFO: %v", got)
		}
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	e := NewEngine(1)
	fired := false
	e.Schedule(-5*time.Second, "neg", func() { fired = true })
	if err := e.Run(0); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !fired {
		t.Error("negative-delay event did not fire")
	}
	if e.Now() != 0 {
		t.Errorf("clock moved backwards: %v", e.Now())
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	h := e.Schedule(time.Second, "x", func() { fired = true })
	if !h.Pending() {
		t.Fatal("handle should be pending")
	}
	if !h.Cancel() {
		t.Fatal("cancel should succeed")
	}
	if h.Cancel() {
		t.Fatal("second cancel should fail")
	}
	if err := e.Run(0); err != nil {
		t.Fatalf("run: %v", err)
	}
	if fired {
		t.Error("canceled event fired")
	}
}

func TestHorizonStopsClock(t *testing.T) {
	e := NewEngine(1)
	fired := false
	e.Schedule(10*time.Second, "late", func() { fired = true })
	if err := e.Run(5 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if fired {
		t.Error("event beyond horizon fired")
	}
	if e.Now() != 5*time.Second {
		t.Errorf("Now() = %v, want 5s", e.Now())
	}
	// Resume: the event is still there.
	if err := e.Run(10 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !fired {
		t.Error("event did not fire after resuming")
	}
}

// TestStop: cancelling the run's context from inside an event stops the
// run after that event, with the clock at its time, and a later Run
// resumes with the next event.
func TestStop(t *testing.T) {
	e := NewEngine(1)
	ctx, cancel := context.WithCancel(context.Background())
	count := 0
	tk := e.Every(time.Second, "tick", func() {
		count++
		if count == 3 {
			cancel()
		}
	})
	if err := e.RunContext(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("run err = %v, want context.Canceled", err)
	}
	if count != 3 || e.Now() != 3*time.Second {
		t.Errorf("stopped after %d ticks at %v, want 3 at 3s", count, e.Now())
	}
	if err := e.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	tk.Stop()
	if count != 5 {
		t.Errorf("resumed run reached %d ticks, want 5", count)
	}
}

func TestTicker(t *testing.T) {
	e := NewEngine(1)
	count := 0
	tk := e.Every(time.Second, "tick", func() { count++ })
	e.Schedule(5500*time.Millisecond, "stop", func() { tk.Stop() })
	if err := e.Run(20 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if count != 5 {
		t.Errorf("ticks = %d, want 5", count)
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine(1)
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 5 {
			e.Schedule(time.Second, "r", recurse)
		}
	}
	e.Schedule(time.Second, "r", recurse)
	if err := e.Run(0); err != nil {
		t.Fatalf("run: %v", err)
	}
	if depth != 5 {
		t.Errorf("depth = %d, want 5", depth)
	}
	if e.Now() != 5*time.Second {
		t.Errorf("Now() = %v, want 5s", e.Now())
	}
}

// TestClockMonotonic is a property test: however events are scheduled,
// the clock observed inside each fired event never decreases.
func TestClockMonotonic(t *testing.T) {
	prop := func(delays []int16) bool {
		e := NewEngine(42)
		last := time.Duration(-1)
		ok := true
		for _, d := range delays {
			delay := time.Duration(d) * time.Millisecond
			e.Schedule(delay, "p", func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
			})
		}
		if err := e.Run(0); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDeterminism(t *testing.T) {
	trace := func(seed int64) []float64 {
		e := NewEngine(seed)
		rng := e.Stream("test")
		var out []float64
		e.Every(time.Second, "tick", func() { out = append(out, rng.Float64()) })
		_ = e.Run(10 * time.Second)
		return out
	}
	a, b := trace(7), trace(7)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := trace(8)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}

func TestEngineAccessors(t *testing.T) {
	e := NewEngine(5)
	if e.Processed() != 0 || e.Now() != 0 || pending(&e.ln) != 0 {
		t.Error("fresh engine should have no events")
	}
	e.Schedule(time.Second, "x", func() {})
	if pending(&e.ln) != 1 {
		t.Errorf("%d events queued, want 1", pending(&e.ln))
	}
	_ = e.Run(0)
	if e.Processed() != 1 || e.Now() != time.Second {
		t.Errorf("Processed = %d at %v, want 1 at 1s", e.Processed(), e.Now())
	}
}

func TestScheduleAt(t *testing.T) {
	e := NewEngine(6)
	var at time.Duration
	e.ScheduleAt(10*time.Second, "abs", func() { at = e.Now() })
	_ = e.Run(0)
	if at != 10*time.Second {
		t.Errorf("fired at %v", at)
	}
	// Past times clamp to now.
	e.Schedule(time.Second, "later", func() {
		e.ScheduleAt(0, "past", func() {
			if e.Now() < time.Second {
				t.Error("past-scheduled event ran before now")
			}
		})
	})
	_ = e.Run(0)
}

func TestRunContextCancel(t *testing.T) {
	e := NewEngine(8)
	ctx, cancel := context.WithCancelCause(context.Background())
	cause := errors.New("mission stalled")
	fired := 0
	var tick *Ticker
	tick = e.Every(time.Second, "ctx.tick", func() {
		fired++
		if fired == 3 {
			cancel(cause)
		}
	})
	defer tick.Stop()
	err := e.RunContext(ctx, time.Minute)
	if !errors.Is(err, cause) {
		t.Fatalf("RunContext error = %v, want cause %v", err, cause)
	}
	// The loop observes ctx between events: the cancelling event itself
	// completes, nothing after it runs.
	if fired != 3 {
		t.Errorf("events after cancellation: fired = %d, want 3", fired)
	}
	if e.Now() != 3*time.Second {
		t.Errorf("clock advanced to %v after cancellation, want 3s", e.Now())
	}
}

func TestRunContextPreCancelled(t *testing.T) {
	e := NewEngine(9)
	e.Schedule(time.Second, "never", func() { t.Error("event ran under a cancelled context") })
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := e.RunContext(ctx, time.Minute); err == nil {
		t.Fatal("RunContext under a cancelled context returned nil")
	}
	if e.Now() != 0 {
		t.Errorf("clock advanced to %v", e.Now())
	}
}

func TestRunContextBackgroundMatchesRun(t *testing.T) {
	trace := func(run func(e *Engine) error) (uint64, error) {
		e := NewEngine(10)
		var tk *Ticker
		tk = e.Every(time.Second, "bg.tick", func() {})
		defer tk.Stop()
		err := run(e)
		return e.Processed(), err
	}
	n1, err1 := trace(func(e *Engine) error { return e.Run(10 * time.Second) })
	n2, err2 := trace(func(e *Engine) error { return e.RunContext(context.Background(), 10*time.Second) })
	if n1 != n2 || (err1 == nil) != (err2 == nil) {
		t.Errorf("Run vs RunContext(background): processed %d/%d, errs %v/%v", n1, n2, err1, err2)
	}
}
