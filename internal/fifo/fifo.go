// Package fifo provides the arrival-ordered queue that the GTM, the wire
// engine and the shard coordinator retire their oldest entries from.
package fifo

// Queue is a growable ring-buffer queue. Its users only ever append at the
// back and retire from the front (the GTM's GC horizon queue, sleepers,
// open snapshots and retained terminal transactions; the engine's and the
// coordinator's finished transactions), so every operation is amortised
// O(1) and nothing is re-copied as the head advances. The zero value is an
// empty queue.
type Queue[T any] struct {
	buf  []T // len(buf) is zero or a power of two
	head int
	n    int
}

// maxIdleBuf is the largest buffer an emptied queue holds on to; beyond it the
// buffer is released so one burst does not pin its high-water mark.
const maxIdleBuf = 1024

// Len returns the number of queued elements.
func (q *Queue[T]) Len() int { return q.n }

func (q *Queue[T]) slot(i int) *T { return &q.buf[(q.head+i)&(len(q.buf)-1)] }

// At returns the i-th oldest element.
func (q *Queue[T]) At(i int) T { return *q.slot(i) }

// Front returns the oldest element; the queue must not be empty.
func (q *Queue[T]) Front() T { return q.At(0) }

// Push appends v at the back.
func (q *Queue[T]) Push(v T) {
	if q.n == len(q.buf) {
		grown := make([]T, max(8, 2*len(q.buf)))
		for i := 0; i < q.n; i++ {
			grown[i] = q.At(i)
		}
		q.buf, q.head = grown, 0
	}
	q.n++
	*q.slot(q.n - 1) = v
}

// Pop drops the oldest element; the queue must not be empty.
func (q *Queue[T]) Pop() {
	var zero T
	*q.slot(0) = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	if q.n == 0 && len(q.buf) > maxIdleBuf {
		q.buf, q.head = nil, 0
	}
}

// Filter drops every element keep rejects, preserving order.
func (q *Queue[T]) Filter(keep func(T) bool) {
	var kept Queue[T]
	for i := 0; i < q.n; i++ {
		if e := q.At(i); keep(e) {
			kept.Push(e)
		}
	}
	*q = kept
}
