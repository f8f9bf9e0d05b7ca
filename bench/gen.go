package main

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"

	"preserial/internal/sem"
)

// The generators turn (seed, client) into a stream of tasks. They are pure:
// the program under test sees only the calls a client makes from them, and
// the same seed always yields the same stream (gen_test.go hashes them).
// Objects are split into disjoint partitions, one per client — object i
// belongs to client i mod clients — so per-object commit order is the owning
// client's program order and an exact model replay is the oracle.

// taskKind is what a client does with a task.
type taskKind uint8

const (
	tkRead    taskKind = iota // one-shot snapshot read of objs[0]
	tkBooking                 // begin, invoke add/sub, apply -1, commit on objs[:n]
	tkSleeper                 // long-running transaction that disconnects once
)

// task is one unit of client work.
type task struct {
	kind  taskKind
	n     int       // objects used
	objs  [2]int    // global object indexes
	class sem.Class // tkSleeper: AddSub or Assign
}

// clientRand is client i's private stream for a seed.
func clientRand(seed int64, client int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(client)*7919 + 1))
}

// partition lists the objects of [0, total) that client owns.
func partition(total, clients, client int) []int {
	var out []int
	for i := client; i < total; i += clients {
		out = append(out, i)
	}
	return out
}

// generator yields a client's tasks.
type generator interface {
	next() task
}

// bookingGen is cluster_booking's mix: 80 % single-object bookings, 20 %
// two-object bookings whose objects sit on different shards.
type bookingGen struct {
	rng     *rand.Rand
	own     []int   // the client's partition
	byShard [][]int // the same objects grouped by owning shard
	shardOf func(obj int) int
}

const crossShardPct = 20

func newBookingGen(seed int64, client int, own []int, shards int, shardOf func(int) int) *bookingGen {
	g := &bookingGen{rng: clientRand(seed, client), own: own, byShard: make([][]int, shards), shardOf: shardOf}
	for _, o := range own {
		s := shardOf(o)
		g.byShard[s] = append(g.byShard[s], o)
	}
	return g
}

func (g *bookingGen) next() task {
	a := g.own[g.rng.Intn(len(g.own))]
	if g.rng.Intn(100) >= crossShardPct {
		return task{kind: tkBooking, n: 1, objs: [2]int{a}}
	}
	// Second object from another shard: pick among the other shards, then
	// within it (every shard holds a share of every partition).
	other := (g.shardOf(a) + 1 + g.rng.Intn(len(g.byShard)-1)) % len(g.byShard)
	b := g.byShard[other][g.rng.Intn(len(g.byShard[other]))]
	return task{kind: tkBooking, n: 2, objs: [2]int{a, b}}
}

// readMostlyGen is wire_read_mostly's mix: 90 % one-shot snapshot reads,
// 10 % single-object bookings.
type readMostlyGen struct {
	rng *rand.Rand
	own []int
}

const readPct = 90

func newReadMostlyGen(seed int64, client int, own []int) *readMostlyGen {
	return &readMostlyGen{rng: clientRand(seed, client), own: own}
}

func (g *readMostlyGen) next() task {
	obj := g.own[g.rng.Intn(len(g.own))]
	if g.rng.Intn(100) < readPct {
		return task{kind: tkRead, n: 1, objs: [2]int{obj}}
	}
	return task{kind: tkBooking, n: 1, objs: [2]int{obj}}
}

// sleeperGen is mobile_sleepers' script: a fixed cycle of long-running
// transactions, replayed in a loop. alphaPct of them subtract (add/sub -1),
// the rest assign — the paper's α. Because the cycle repeats, so does the
// pattern of awake-aborts, which makes the abort share exact for a seed.
type sleeperGen struct {
	script []task
	pos    int
}

const (
	alphaPct    = 70
	sleeperObjs = 256 // objects per client partition
)

func newSleeperGen(seed int64, client int, own []int, cycle int) *sleeperGen {
	rng := clientRand(seed, client)
	g := &sleeperGen{script: make([]task, cycle)}
	for i := range g.script {
		class := sem.Assign
		if rng.Intn(100) < alphaPct {
			class = sem.AddSub
		}
		g.script[i] = task{kind: tkSleeper, n: 1, objs: [2]int{own[rng.Intn(len(own))]}, class: class}
	}
	return g
}

func (g *sleeperGen) next() task {
	t := g.script[g.pos]
	g.pos = (g.pos + 1) % len(g.script)
	return t
}

// burstGen is embedded_burst's stream: bursts of burstSize bookings on
// distinct objects of the client's partition. next yields them one by one;
// a burst is burstSize consecutive tasks.
type burstGen struct {
	rng   *rand.Rand
	own   []int
	burst []int
	seen  map[int]bool
}

const burstSize = 32

func newBurstGen(seed int64, client int, own []int) *burstGen {
	return &burstGen{rng: clientRand(seed, client), own: own, seen: make(map[int]bool, burstSize)}
}

func (g *burstGen) next() task {
	if len(g.burst) == 0 {
		for k := range g.seen {
			delete(g.seen, k)
		}
		for len(g.burst) < burstSize {
			o := g.own[g.rng.Intn(len(g.own))]
			if !g.seen[o] {
				g.seen[o] = true
				g.burst = append(g.burst, o)
			}
		}
	}
	o := g.burst[0]
	g.burst = g.burst[1:]
	return task{kind: tkBooking, n: 1, objs: [2]int{o}}
}

// streamHash folds the first n tasks of a generator into one number.
func streamHash(g generator, n int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < n; i++ {
		t := g.next()
		binary.LittleEndian.PutUint16(buf[0:], uint16(t.kind)<<8|uint16(t.class))
		binary.LittleEndian.PutUint16(buf[2:], uint16(t.n))
		h.Write(buf[:4])
		for _, o := range t.objs[:t.n] {
			binary.LittleEndian.PutUint64(buf[:], uint64(o))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}
