package core

// fifo is a growable ring-buffer queue. The Manager's arrival-ordered lists
// (GC horizon queue, sleepers, open snapshots, retained terminal
// transactions) only ever append at the back and retire from the front, so
// every operation is amortised O(1) and nothing is re-copied as the head
// advances. The zero value is an empty queue.
type fifo[T any] struct {
	buf  []T // len(buf) is zero or a power of two
	head int
	n    int
}

// fifoKeep is the largest buffer an emptied queue holds on to; beyond it
// the buffer is released so one burst does not pin its high-water mark.
const fifoKeep = 1024

func (q *fifo[T]) len() int { return q.n }

func (q *fifo[T]) slot(i int) *T { return &q.buf[(q.head+i)&(len(q.buf)-1)] }

// at returns the i-th oldest element.
func (q *fifo[T]) at(i int) T { return *q.slot(i) }

// front returns the oldest element; the queue must not be empty.
func (q *fifo[T]) front() T { return q.at(0) }

func (q *fifo[T]) push(v T) {
	if q.n == len(q.buf) {
		grown := make([]T, max(8, 2*len(q.buf)))
		for i := 0; i < q.n; i++ {
			grown[i] = q.at(i)
		}
		q.buf, q.head = grown, 0
	}
	q.n++
	*q.slot(q.n - 1) = v
}

// pop drops the oldest element; the queue must not be empty.
func (q *fifo[T]) pop() {
	var zero T
	*q.slot(0) = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	if q.n == 0 && len(q.buf) > fifoKeep {
		q.buf, q.head = nil, 0
	}
}

// filter drops every element keep rejects, preserving order.
func (q *fifo[T]) filter(keep func(T) bool) {
	var kept fifo[T]
	for i := 0; i < q.n; i++ {
		if e := q.at(i); keep(e) {
			kept.push(e)
		}
	}
	*q = kept
}
