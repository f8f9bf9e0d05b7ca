package main

import (
	"container/heap"
	"math/rand"
	"testing"
	"time"
)

// TestParetoSamples checks the heavy-tail sampler's bounds: never below the
// minimum, capped at 1000×, and with a mean near xm·α/(α−1).
func TestParetoSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xm := 100 * time.Millisecond
	const alpha = 1.5
	var sum time.Duration
	const n = 20000
	for i := 0; i < n; i++ {
		d := pareto(rng, xm, alpha)
		if d < xm {
			t.Fatalf("sample %v below minimum %v", d, xm)
		}
		if d > 1000*xm {
			t.Fatalf("sample %v above cap", d)
		}
		sum += d
	}
	mean := sum / n
	// Theoretical mean is 3·xm = 300ms; the cap shaves the tail a bit.
	if mean < 200*time.Millisecond || mean > 400*time.Millisecond {
		t.Errorf("mean %v outside [200ms, 400ms]", mean)
	}
}

// TestWakeHeapOrders checks the scheduler heap pops wake-ups in time order.
func TestWakeHeapOrders(t *testing.T) {
	base := time.Unix(0, 0)
	h := &wakeHeap{}
	for _, off := range []int{5, 1, 4, 2, 3} {
		heap.Push(h, wakeEv{at: base.Add(time.Duration(off) * time.Second), client: off})
	}
	for want := 1; want <= 5; want++ {
		ev := heap.Pop(h).(wakeEv)
		if ev.client != want {
			t.Fatalf("popped client %d, want %d", ev.client, want)
		}
	}
}
