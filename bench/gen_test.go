package main

import (
	"testing"

	"preserial/internal/sem"
	"preserial/internal/shard"
)

// generatorsFor builds every workload's generator for one (seed, client).
func generatorsFor(seed int64, client int) map[string]generator {
	const clients = 2
	ring := shard.NewRing(clusterShards)
	route := func(obj int) int { return ring.Route(seatObject(obj)) }
	return map[string]generator{
		wlClusterBooking: newBookingGen(seed, client, partition(clusterObjects, clients, client), clusterShards, route),
		wlWireReadMostly: newReadMostlyGen(seed, client, partition(wireObjects, clients, client)),
		wlMobileSleepers: newSleeperGen(seed, client, partition(sleeperObjs*clients, clients, client), sleeperCycle),
		wlEmbeddedBurst:  newBurstGen(seed, client, partition(burstObjects, clients, client)),
	}
}

// Same seed → identical call stream per client; another seed, or another
// client of the same seed → a different one.
func TestGeneratorsAreDeterministic(t *testing.T) {
	const n = 4096
	hash := func(seed int64, client int) map[string]uint64 {
		out := make(map[string]uint64)
		for name, g := range generatorsFor(seed, client) {
			out[name] = streamHash(g, n)
		}
		return out
	}
	for client := 0; client < 2; client++ {
		a, again, other := hash(1, client), hash(1, client), hash(2, client)
		for _, name := range workloadNames {
			if a[name] != again[name] {
				t.Errorf("%s client %d: seed 1 gave two different streams", name, client)
			}
			if a[name] == other[name] {
				t.Errorf("%s client %d: seeds 1 and 2 gave the same stream", name, client)
			}
		}
	}
	c0, c1 := hash(1, 0), hash(1, 1)
	for _, name := range workloadNames {
		if c0[name] == c1[name] {
			t.Errorf("%s: clients 0 and 1 share a stream", name)
		}
	}
}

// Clients must stay inside their own partition, or the model oracle is void.
func TestGeneratorsStayInPartition(t *testing.T) {
	const clients, n = 2, 20000
	for client := 0; client < clients; client++ {
		for name, g := range generatorsFor(7, client) {
			for i := 0; i < n; i++ {
				tk := g.next()
				for _, obj := range tk.objs[:tk.n] {
					if obj%clients != client {
						t.Fatalf("%s client %d touched object %d of another partition", name, client, obj)
					}
				}
			}
		}
	}
}

func TestBookingMix(t *testing.T) {
	ring := shard.NewRing(clusterShards)
	route := func(obj int) int { return ring.Route(seatObject(obj)) }
	g := newBookingGen(1, 0, partition(clusterObjects, 2, 0), clusterShards, route)
	const n = 50000
	cross := 0
	for i := 0; i < n; i++ {
		tk := g.next()
		if tk.n == 2 {
			cross++
			if route(tk.objs[0]) == route(tk.objs[1]) {
				t.Fatalf("two-object booking %v stays on one shard", tk.objs)
			}
		}
	}
	if pct := 100 * float64(cross) / n; pct < 19 || pct > 21 {
		t.Errorf("cross-shard share = %.2f%%, want 20 ± 1", pct)
	}
}

func TestReadMostlyAndSleeperMix(t *testing.T) {
	const n = 50000
	g := newReadMostlyGen(1, 0, partition(wireObjects, 2, 0))
	reads := 0
	for i := 0; i < n; i++ {
		if g.next().kind == tkRead {
			reads++
		}
	}
	if pct := 100 * float64(reads) / n; pct < 89 || pct > 91 {
		t.Errorf("read share = %.2f%%, want 90 ± 1", pct)
	}

	s := newSleeperGen(1, 0, partition(sleeperObjs*2, 2, 0), sleeperCycle)
	first := make([]task, sleeperCycle)
	addSub := 0
	for i := range first {
		first[i] = s.next()
		if first[i].class == sem.AddSub {
			addSub++
		}
	}
	if pct := 100 * float64(addSub) / sleeperCycle; pct < 65 || pct > 75 {
		t.Errorf("add/sub share of the script = %.1f%%, want about 70 (alpha)", pct)
	}
	for i := range first { // the script is a cycle
		if got := s.next(); got != first[i] {
			t.Fatalf("second cycle differs at position %d", i)
		}
	}
}

func TestBurstsAreDistinct(t *testing.T) {
	g := newBurstGen(1, 0, partition(burstObjects, 2, 0))
	for b := 0; b < 200; b++ {
		seen := make(map[int]bool)
		for k := 0; k < burstSize; k++ {
			obj := g.next().objs[0]
			if seen[obj] {
				t.Fatalf("burst %d repeats object %d", b, obj)
			}
			seen[obj] = true
		}
	}
}
