package eventsim

import (
	"sort"
	"testing"
	"testing/quick"

	"ealb/internal/units"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	s := New()
	var order []units.Seconds
	for _, at := range []units.Seconds{5, 1, 3, 2, 4} {
		at := at
		s.Schedule(at, func(now units.Seconds) {
			order = append(order, now)
		})
	}
	s.Run()
	if len(order) != 5 {
		t.Fatalf("fired %d events, want 5", len(order))
	}
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			t.Fatalf("events out of order: %v", order)
		}
	}
}

func TestTieBreakBySeq(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(7, func(units.Seconds) { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events must fire in schedule order, got %v", order)
		}
	}
}

func TestClockAdvances(t *testing.T) {
	s := New()
	s.Schedule(10, func(now units.Seconds) {
		if now != 10 {
			t.Errorf("handler saw now=%v, want 10", now)
		}
		if s.Now() != 10 {
			t.Errorf("Now()=%v inside handler, want 10", s.Now())
		}
	})
	s.Run()
	if s.Now() != 10 {
		t.Errorf("final clock = %v, want 10", s.Now())
	}
}

func TestSchedulePastPanics(t *testing.T) {
	s := New()
	s.Schedule(10, func(units.Seconds) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past must panic")
			}
		}()
		s.Schedule(5, func(units.Seconds) {})
	})
	s.Run()
}

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	h := s.Schedule(1, func(units.Seconds) { fired = true })
	h.Cancel()
	s.Run()
	if fired {
		t.Error("cancelled event fired")
	}
	// Double-cancel is a no-op.
	h.Cancel()
}

func TestRunUntil(t *testing.T) {
	s := New()
	var fired []units.Seconds
	for _, at := range []units.Seconds{1, 2, 3, 4, 5} {
		at := at
		s.Schedule(at, func(now units.Seconds) { fired = append(fired, now) })
	}
	s.RunUntil(3)
	if len(fired) != 3 {
		t.Fatalf("RunUntil(3) fired %d events, want 3", len(fired))
	}
	if s.Now() != 3 {
		t.Errorf("clock = %v, want 3", s.Now())
	}
	s.RunUntil(10)
	if len(fired) != 5 {
		t.Errorf("resumed run fired %d total, want 5", len(fired))
	}
	if s.Now() != 10 {
		t.Errorf("clock advanced to %v, want deadline 10", s.Now())
	}
}

func TestRunUntilWithCancelledHead(t *testing.T) {
	s := New()
	h := s.Schedule(1, func(units.Seconds) { t.Error("cancelled fired") })
	fired := false
	s.Schedule(2, func(units.Seconds) { fired = true })
	h.Cancel()
	s.RunUntil(5)
	if !fired {
		t.Error("live event after cancelled head did not fire")
	}
}

func TestStop(t *testing.T) {
	s := New()
	count := 0
	for i := 1; i <= 10; i++ {
		s.Schedule(units.Seconds(i), func(units.Seconds) {
			count++
			if count == 3 {
				s.Stop()
			}
		})
	}
	s.Run()
	if count != 3 {
		t.Errorf("Stop did not halt run: fired %d", count)
	}
	if s.Pending() != 7 {
		t.Errorf("Pending = %d, want 7", s.Pending())
	}
}

func TestTicker(t *testing.T) {
	s := New()
	var times []units.Seconds
	tk := s.Every(0, 10, func(now units.Seconds) {
		times = append(times, now)
	})
	s.RunUntil(45)
	tk.Stop()
	s.RunUntil(100)
	want := []units.Seconds{0, 10, 20, 30, 40}
	if len(times) != len(want) {
		t.Fatalf("ticker fired at %v, want %v", times, want)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("ticker fired at %v, want %v", times, want)
		}
	}
	if tk.Ticks() != 5 {
		t.Errorf("Ticks = %d, want 5", tk.Ticks())
	}
}

func TestTickerStopInsideHandler(t *testing.T) {
	s := New()
	var tk *Ticker
	n := 0
	tk = s.Every(0, 1, func(units.Seconds) {
		n++
		if n == 3 {
			tk.Stop()
		}
	})
	s.Run()
	if n != 3 {
		t.Errorf("ticker fired %d times after Stop at 3", n)
	}
}

func TestTickerBadPeriodPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Error("zero period must panic")
		}
	}()
	s.Every(0, 0, func(units.Seconds) {})
}

func TestFiredCounter(t *testing.T) {
	s := New()
	for i := 0; i < 5; i++ {
		s.Schedule(units.Seconds(i), func(units.Seconds) {})
	}
	s.Run()
	if s.Fired() != 5 {
		t.Errorf("Fired = %d, want 5", s.Fired())
	}
}

func TestOrderingProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		s := New()
		var fired []units.Seconds
		for _, v := range raw {
			at := units.Seconds(v % 1000)
			s.Schedule(at, func(now units.Seconds) { fired = append(fired, now) })
		}
		s.Run()
		if len(fired) != len(raw) {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNestedScheduling(t *testing.T) {
	// Each event schedules the next; a chain of N events must all run.
	s := New()
	const n = 1000
	count := 0
	var step func(now units.Seconds)
	step = func(now units.Seconds) {
		count++
		if count < n {
			s.Schedule(now+1, step)
		}
	}
	s.Schedule(0, step)
	s.Run()
	if count != n {
		t.Errorf("chain executed %d events, want %d", count, n)
	}
	if s.Now() != units.Seconds(n-1) {
		t.Errorf("clock = %v, want %v", s.Now(), n-1)
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := New()
		for j := 0; j < 1000; j++ {
			s.Schedule(units.Seconds(j%100), func(units.Seconds) {})
		}
		s.Run()
	}
}
