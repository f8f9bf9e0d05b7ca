package gateway

import (
	"fmt"
	"runtime"
	"testing"

	"preserial/internal/core"
	"preserial/internal/wire"
)

// TestParkedSessionHeap measures the real heap a parked session holds and
// holds the parked-bytes gauge to it. An idle session and one that has run
// a transaction to its end must cost at most heapBudget bytes, the figure
// docs/GATEWAY.md's capacity plan and gtmd's -gw-max-sessions default are
// built on. Warm-up sessions first fill the engine's and the GTM's
// count-bounded retention of finished transactions, so a measured one
// leaves nothing there beyond their count: its terminal op is unsequenced,
// so the engine keeps no reply to replay. A session parked mid-transaction
// also holds its sleeping transaction, most of it in the GTM, which the
// gauge leaves out: the test reports that share and checks only that the
// gauge stays under the heap.
func TestParkedSessionHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("a heap measurement; the race detector's shadow memory skews it")
	}
	const heapBudget = 192 // bytes per parked session
	const warm = core.TerminalRetention + 4000
	for _, tc := range []struct {
		name     string
		warm, n  int
		ops      []wire.Op // run on one transaction before the park
		ownShare bool      // the gauge must read the heap within 25 %
	}{
		{"idle", warm, 50_000, nil, true},
		{"finished", warm, 50_000, []wire.Op{wire.OpBegin, wire.OpCommit}, true},
		{"asleep", 1000, 10_000, []wire.Op{wire.OpBegin}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, _ := newClockedGateway(t)
			c := testConn(t, s)
			next := 0
			park := func(count int) {
				for end := next + count; next < end; next++ {
					id := fmt.Sprintf("phone-%07d", next)
					resp := s.attach(c, &wire.Request{Op: wire.OpGwAttach, Session: id, Tenant: "t"})
					if !resp.OK {
						t.Fatalf("attach %s: %s", id, resp.Err)
					}
					owner := c.bound[id].owner
					tx := id + "/0"
					for i, op := range tc.ops {
						req := wire.Request{Op: op, Tx: tx}
						if i == 0 {
							req.Seq = 1 // the terminal op stays unsequenced
						}
						if resp := s.e.Serve(&req, owner); !resp.OK {
							t.Fatalf("%s %s: %s", op, tx, resp.Err)
						}
					}
					s.detach(c, &wire.Request{Op: wire.OpGwDetach, Session: id})
				}
			}
			park(tc.warm)
			heap0, gauge0 := liveHeap(), s.ParkedBytes()
			park(tc.n)
			heap1, gauge1 := liveHeap(), s.ParkedBytes()
			if _, parked := s.SessionCounts(); parked != tc.warm+tc.n {
				t.Fatalf("%d sessions parked, want %d", parked, tc.warm+tc.n)
			}
			real := (float64(heap1) - float64(heap0)) / float64(tc.n)
			gauge := float64(gauge1-gauge0) / float64(tc.n)
			t.Logf("%s parked session: %.0f B of heap, gauge %.0f B", tc.name, real, gauge)
			if !tc.ownShare {
				t.Logf("the sleeping transaction's share outside the gateway: %.0f B", real-gauge)
				if gauge > real {
					t.Errorf("the gauge charges %.0f B per parked %s session, more than the %.0f B of heap", gauge, tc.name, real)
				}
				return
			}
			if real > heapBudget {
				t.Errorf("a parked %s session holds %.0f B of heap, budget %d B", tc.name, real, heapBudget)
			}
			if gauge < 0.75*real || gauge > 1.25*real {
				t.Errorf("the gauge charges %.0f B per parked %s session, the heap holds %.0f B", gauge, tc.name, real)
			}
		})
	}
}

// liveHeap collects garbage and returns the bytes still reachable.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
