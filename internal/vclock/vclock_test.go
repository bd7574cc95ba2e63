package vclock

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSleepAdvancesVirtualTime(t *testing.T) {
	s := New()
	defer s.Stop()

	var elapsed time.Duration
	done := make(chan struct{})
	s.Go(func() {
		defer close(done)
		s.Sleep(15 * time.Second)
		elapsed = s.Elapsed()
	})
	<-done
	if elapsed != 15*time.Second {
		t.Fatalf("elapsed = %v, want 15s", elapsed)
	}
}

func TestSleepZeroReturnsImmediately(t *testing.T) {
	s := New()
	defer s.Stop()
	done := make(chan struct{})
	s.Go(func() {
		defer close(done)
		s.Sleep(0)
		s.Sleep(-time.Second)
	})
	<-done
	if got := s.Elapsed(); got != 0 {
		t.Fatalf("elapsed = %v, want 0", got)
	}
}

func TestEventsRunInTimestampOrder(t *testing.T) {
	s := New()
	defer s.Stop()

	var mu sync.Mutex
	var order []int
	// Schedule from a managed goroutine: from the unmanaged test
	// goroutine the driver could fire the 30 ms event before the others
	// exist.
	s.Go(func() {
		for i, d := range []time.Duration{30 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond} {
			s.Event(d, func() {
				mu.Lock()
				order = append(order, i)
				mu.Unlock()
			})
		}
	})
	s.Wait()
	mu.Lock()
	defer mu.Unlock()
	want := []int{1, 2, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSameTimestampEventsRunInScheduleOrder(t *testing.T) {
	s := New()
	defer s.Stop()

	var mu sync.Mutex
	var order []int
	for i := 0; i < 50; i++ {
		i := i
		s.Event(time.Millisecond, func() {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		})
	}
	s.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 50 {
		t.Fatalf("ran %d events, want 50", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d", i, v, i)
		}
	}
}

func TestAfterFuncFiresAndMayBlock(t *testing.T) {
	s := New()
	defer s.Stop()

	done := make(chan time.Duration, 1)
	s.AfterFunc(100*time.Millisecond, func() {
		// AfterFunc callbacks run managed, so they may Sleep.
		s.Sleep(50 * time.Millisecond)
		done <- s.Elapsed()
	})
	s.Wait()
	got := <-done
	if got != 150*time.Millisecond {
		t.Fatalf("callback finished at %v, want 150ms", got)
	}
}

func TestTimerStopPreventsCallback(t *testing.T) {
	s := New()
	defer s.Stop()

	var fired atomic.Bool
	var first, second bool
	// Managed, so virtual time cannot reach the timer before Stop.
	s.Go(func() {
		tm := s.AfterFunc(10*time.Millisecond, func() { fired.Store(true) })
		first, second = tm.Stop(), tm.Stop()
		// Later event to force time past the cancelled one.
		s.Event(20*time.Millisecond, func() {})
	})
	s.Wait()
	if !first {
		t.Fatal("Stop returned false on pending timer")
	}
	if second {
		t.Fatal("second Stop returned true")
	}
	if fired.Load() {
		t.Fatal("cancelled timer fired")
	}
}

func TestCondSignalWakesWaiterWithoutTimeSkew(t *testing.T) {
	s := New()
	defer s.Stop()

	var mu sync.Mutex
	cond := NewCond(s, &mu)
	ready := false
	var wokeAt time.Duration

	done := make(chan struct{})
	s.Go(func() {
		defer close(done)
		mu.Lock()
		for !ready {
			cond.Wait()
		}
		wokeAt = s.Elapsed()
		mu.Unlock()
	})
	s.Event(250*time.Millisecond, func() {
		mu.Lock()
		ready = true
		cond.Signal()
		mu.Unlock()
	})
	<-done
	if wokeAt != 250*time.Millisecond {
		t.Fatalf("waiter woke at %v, want 250ms", wokeAt)
	}
}

func TestCondBroadcastWakesAllWaiters(t *testing.T) {
	s := New()
	defer s.Stop()

	var mu sync.Mutex
	cond := NewCond(s, &mu)
	ready := false
	var wg sync.WaitGroup
	var woke atomic.Int32
	for i := 0; i < 10; i++ {
		wg.Add(1)
		s.Go(func() {
			defer wg.Done()
			mu.Lock()
			for !ready {
				cond.Wait()
			}
			mu.Unlock()
			woke.Add(1)
		})
	}
	s.Event(time.Millisecond, func() {
		mu.Lock()
		ready = true
		cond.Broadcast()
		mu.Unlock()
	})
	wg.Wait()
	if woke.Load() != 10 {
		t.Fatalf("woke %d waiters, want 10", woke.Load())
	}
}

func TestParkedGoroutineDoesNotBlockTime(t *testing.T) {
	s := New()
	defer s.Stop()

	var mu sync.Mutex
	cond := NewCond(s, &mu)
	// A "server" parked forever must not stop the clock.
	s.Go(func() {
		mu.Lock()
		for {
			cond.Wait()
		}
	})
	done := make(chan struct{})
	s.Go(func() {
		defer close(done)
		s.Sleep(time.Hour)
	})
	<-done
	if got := s.Elapsed(); got != time.Hour {
		t.Fatalf("elapsed = %v, want 1h", got)
	}
}

func TestWaitReturnsOnQuiescence(t *testing.T) {
	s := New()
	defer s.Stop()

	var n atomic.Int32
	for i := 0; i < 20; i++ {
		d := time.Duration(i) * time.Millisecond
		s.Event(d, func() { n.Add(1) })
	}
	s.Wait()
	if n.Load() != 20 {
		t.Fatalf("ran %d events before Wait returned, want 20", n.Load())
	}
}

func TestNestedSpawnsComplete(t *testing.T) {
	s := New()
	defer s.Stop()

	var n atomic.Int32
	var wg sync.WaitGroup
	wg.Add(1)
	s.Go(func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			wg.Add(1)
			s.Go(func() {
				defer wg.Done()
				s.Sleep(10 * time.Millisecond)
				n.Add(1)
			})
		}
		s.Sleep(time.Second)
	})
	wg.Wait()
	if n.Load() != 5 {
		t.Fatalf("children ran %d, want 5", n.Load())
	}
	if got := s.Elapsed(); got != time.Second {
		t.Fatalf("elapsed = %v, want 1s", got)
	}
}

func TestNowTracksEpoch(t *testing.T) {
	s := New()
	defer s.Stop()
	if !s.Now().Equal(Epoch) {
		t.Fatalf("Now = %v, want %v", s.Now(), Epoch)
	}
	done := make(chan struct{})
	s.Go(func() {
		defer close(done)
		s.Sleep(time.Minute)
	})
	<-done
	if want := Epoch.Add(time.Minute); !s.Now().Equal(want) {
		t.Fatalf("Now = %v, want %v", s.Now(), want)
	}
}

func TestManyConcurrentSleepersDeterministic(t *testing.T) {
	// Stress the busy accounting: many goroutines sleeping interleaved
	// durations must all observe exact virtual timestamps.
	s := New()
	defer s.Stop()

	const n = 100
	errs := make(chan error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		s.Go(func() {
			defer wg.Done()
			total := time.Duration(0)
			for j := 0; j < 5; j++ {
				d := time.Duration((i+j)%7+1) * time.Millisecond
				s.Sleep(d)
				total += d
			}
			_ = total
			errs <- nil
		})
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestHeapPopReleasesSlot(t *testing.T) {
	// Regression: the pending-event containers must nil out vacated tail
	// slots when shrinking, or the backing arrays retain popped *event
	// values for the life of the world — a leak that grows with exactly
	// the long, event-heavy runs the flow-level mode introduces.
	var h []*event
	for i := 0; i < 8; i++ {
		h = heapPush(h, &event{at: time.Duration(i), seq: uint64(i)})
	}
	backing := h[:cap(h)]
	for len(h) > 0 {
		h, _ = heapPop(h)
	}
	for i, ev := range backing {
		if ev != nil {
			t.Fatalf("backing[%d] still references a popped event", i)
		}
	}
}

func TestTimerStopAfterRecycleIsNoop(t *testing.T) {
	// Event structs are recycled through a freelist. A Timer handle held
	// across its event firing must not be able to cancel the unrelated
	// timer that later reuses the struct.
	s := New()
	defer s.Stop()

	var fired [2]bool
	t0 := s.Event(time.Millisecond, func() { fired[0] = true })
	s.Wait()
	// t0's event has fired and its struct returned to the freelist; the
	// next Event reuses it.
	s.Event(2*time.Millisecond, func() { fired[1] = true })
	if t0.Stop() {
		t.Fatal("Stop on a fired timer reported true")
	}
	s.Wait()
	if !fired[0] || !fired[1] {
		t.Fatalf("fired = %v, want both", fired)
	}
}

func TestWheelOverflowOrdering(t *testing.T) {
	// Events beyond the wheel horizon live in the overflow heap; events
	// inside it live in the wheel. They must still fire in global
	// timestamp order, including ties across the boundary as the clock
	// advances into the far event's horizon.
	s := New()
	defer s.Stop()

	var order []int
	mu := make(chan struct{}, 1)
	mu <- struct{}{}
	add := func(i int) { <-mu; order = append(order, i); mu <- struct{}{} }
	// Managed, so the clock cannot advance between the four schedules.
	s.Go(func() {
		s.Event(10*time.Second, func() { add(2) }) // far beyond the horizon
		s.Event(time.Millisecond, func() { add(0) })
		s.Event(5*time.Second, func() { add(1) }) // just past the horizon
		s.Event(10*time.Second, func() { add(3) })
	})
	s.Wait()
	if len(order) != 4 || order[0] != 0 || order[1] != 1 || order[2] != 2 || order[3] != 3 {
		t.Fatalf("order = %v, want [0 1 2 3]", order)
	}
	if got := s.Elapsed(); got != 10*time.Second {
		t.Fatalf("elapsed = %v, want 10s", got)
	}
}

func TestStopCancelledEventInDrainedBatch(t *testing.T) {
	// An event callback may Stop a timer that shares its instant and has
	// already been drained into the batch; the cancelled callback must
	// not run.
	s := New()
	defer s.Stop()

	var ran bool
	// Managed, so neither event can fire before victim is assigned.
	s.Go(func() {
		var victim *Timer
		s.Event(time.Millisecond, func() { victim.Stop() })
		victim = s.Event(time.Millisecond, func() { ran = true })
	})
	s.Wait()
	if ran {
		t.Fatal("cancelled same-instant event still ran")
	}
}
