package fifo

import "testing"

func TestFifo(t *testing.T) {
	var q Queue[int]
	next, want := 0, 0
	for round := 0; round < 50; round++ {
		for i := 0; i < 3*round+1; i++ {
			q.Push(next)
			next++
		}
		for i := 0; i < 2*round+1 && q.Len() > 0; i++ {
			if got := q.Front(); got != want {
				t.Fatalf("front = %d, want %d", got, want)
			}
			q.Pop()
			want++
		}
	}
	q.Filter(func(v int) bool { return v%2 == 0 })
	for q.Len() > 0 {
		if want%2 != 0 {
			want++
		}
		if got := q.Front(); got != want {
			t.Fatalf("after filter front = %d, want %d", got, want)
		}
		q.Pop()
		want++
	}
	if want < next-1 {
		t.Fatalf("queue ran dry at %d of %d", want, next)
	}

	// A burst's buffer is released once the queue empties.
	for i := 0; i < 4*maxIdleBuf; i++ {
		q.Push(i)
	}
	for q.Len() > 0 {
		q.Pop()
	}
	if q.buf != nil {
		t.Fatalf("an emptied queue kept a buffer of %d", len(q.buf))
	}
}
