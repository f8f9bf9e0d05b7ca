package core

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"preserial/internal/sem"
)

// benchManager builds a MemStore-backed GTM with one object.
func benchManager(b *testing.B, opt ...Option) *Manager {
	b.Helper()
	store := NewMemStore()
	ref := StoreRef{Table: "T", Key: "X", Column: "v"}
	store.Seed(ref, sem.Int(1_000_000))
	m := NewManager(store, opt...)
	if err := m.RegisterAtomicObject("X", ref); err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkInvokeApplyCommit measures the full life cycle of a compatible
// transaction (the GTM's fast path).
func BenchmarkInvokeApplyCommit(b *testing.B) {
	m := benchManager(b)
	op := sem.Op{Class: sem.AddSub}
	for i := 0; i < b.N; i++ {
		id := TxID(fmt.Sprintf("t%d", i))
		if err := m.Begin(id); err != nil {
			b.Fatal(err)
		}
		if _, err := m.Invoke(id, "X", op); err != nil {
			b.Fatal(err)
		}
		if err := m.Apply(id, "X", sem.Int(-1)); err != nil {
			b.Fatal(err)
		}
		if err := m.RequestCommit(id); err != nil {
			b.Fatal(err)
		}
		if err := m.Forget(id); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConcurrentCompatibleHolders measures throughput with many
// compatible transactions alive on the same object at once.
func BenchmarkConcurrentCompatibleHolders(b *testing.B) {
	m := benchManager(b)
	op := sem.Op{Class: sem.AddSub}
	const window = 64
	live := make([]TxID, 0, window)
	for i := 0; i < b.N; i++ {
		id := TxID(fmt.Sprintf("t%d", i))
		if err := m.Begin(id); err != nil {
			b.Fatal(err)
		}
		if _, err := m.Invoke(id, "X", op); err != nil {
			b.Fatal(err)
		}
		_ = m.Apply(id, "X", sem.Int(-1))
		live = append(live, id)
		if len(live) == window {
			for _, old := range live {
				if err := m.RequestCommit(old); err != nil {
					b.Fatal(err)
				}
				_ = m.Forget(old)
			}
			live = live[:0]
		}
	}
	for _, old := range live {
		_ = m.RequestCommit(old)
	}
}

// BenchmarkSleepAwake measures the disconnection round trip.
func BenchmarkSleepAwake(b *testing.B) {
	m := benchManager(b)
	op := sem.Op{Class: sem.AddSub}
	if err := m.Begin("t"); err != nil {
		b.Fatal(err)
	}
	if _, err := m.Invoke("t", "X", op); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Sleep("t"); err != nil {
			b.Fatal(err)
		}
		resumed, err := m.Awake("t")
		if err != nil || !resumed {
			b.Fatal(resumed, err)
		}
	}
}

// BenchmarkConflictQueueCycle measures the incompatible path: a waiter
// queues behind an assign holder and is granted at commit.
func BenchmarkConflictQueueCycle(b *testing.B) {
	m := benchManager(b)
	assign := sem.Op{Class: sem.Assign}
	for i := 0; i < b.N; i++ {
		h := TxID(fmt.Sprintf("h%d", i))
		w := TxID(fmt.Sprintf("w%d", i))
		if err := m.Begin(h); err != nil {
			b.Fatal(err)
		}
		if err := m.Begin(w); err != nil {
			b.Fatal(err)
		}
		if _, err := m.Invoke(h, "X", assign); err != nil {
			b.Fatal(err)
		}
		if granted, err := m.Invoke(w, "X", assign); err != nil || granted {
			b.Fatal(granted, err)
		}
		_ = m.Apply(h, "X", sem.Int(1))
		if err := m.RequestCommit(h); err != nil {
			b.Fatal(err)
		}
		// w was granted by the dispatch; finish it.
		_ = m.Apply(w, "X", sem.Int(2))
		if err := m.RequestCommit(w); err != nil {
			b.Fatal(err)
		}
		_ = m.Forget(h)
		_ = m.Forget(w)
	}
}

// BenchmarkClientRoundTrip measures the blocking Client façade.
func BenchmarkClientRoundTrip(b *testing.B) {
	m := benchManager(b)
	ctx := context.Background()
	op := sem.Op{Class: sem.AddSub}
	for i := 0; i < b.N; i++ {
		c, err := m.BeginClient(TxID(fmt.Sprintf("c%d", i)))
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Invoke(ctx, "X", op); err != nil {
			b.Fatal(err)
		}
		if err := c.Apply("X", sem.Int(-1)); err != nil {
			b.Fatal(err)
		}
		if err := c.Commit(ctx); err != nil {
			b.Fatal(err)
		}
		_ = m.Forget(c.ID())
	}
}

// BenchmarkPublish measures one whole commit (begin, invoke, apply, commit,
// forget) on a manager with 1k and with 64k registered objects, each commit
// on the next object in turn. The two figures must agree (within 1.5x):
// publish retires horizon-queue entries, it does not walk the registry.
func BenchmarkPublish(b *testing.B) {
	for _, objects := range []int{1 << 10, 1 << 16} {
		b.Run(fmt.Sprintf("objects=%dk", objects>>10), func(b *testing.B) {
			m := virtualManager(b, objects)
			ids := make([]ObjectID, objects)
			for i := range ids {
				ids[i] = ObjectID(fmt.Sprintf("o%d", i))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := TxID(fmt.Sprintf("t%d", i))
				commitOn(b, m, id, ids[i%objects], addOp)
				if err := m.Forget(id); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRegisterObjects reports what registering an atomic object costs
// in time and in retained heap.
func BenchmarkRegisterObjects(b *testing.B) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m := NewManager(nil)
	b.ResetTimer()
	registerSeats(b, m, b.N)
	b.StopTimer()
	runtime.GC()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.HeapAlloc-before.HeapAlloc)/float64(b.N), "B/object")
	runtime.KeepAlive(m)
}
