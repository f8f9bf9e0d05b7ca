package wire

import (
	"fmt"
	"sync"
)

// DefaultDedupWindow is how many recent (seq → response) entries the server
// retains per transaction for exactly-once replay. It is a hard cap: a
// client cannot widen it, and a retry whose seq has slid 128 or more
// below the transaction's newest is refused rather than re-executed.
const DefaultDedupWindow = 128

// dedupEntry is one mutating request the server has seen: either still
// executing (done open) or finished (resp recorded, done closed). A retry
// that finds an entry waits for done and replays resp instead of executing
// the request a second time.
type dedupEntry struct {
	seq  uint64
	done chan struct{}
	resp *Response
}

// dedupWindow is one transaction's exactly-once state: a bounded map of the
// most recent sequence numbers and their responses. Requests on one
// transaction may arrive on different connections concurrently (the retry
// race), so the window is internally locked.
type dedupWindow struct {
	mu      sync.Mutex
	window  int
	entries map[uint64]*dedupEntry
	maxSeq  uint64
}

func newDedupWindow(window int) *dedupWindow {
	return &dedupWindow{window: window, entries: make(map[uint64]*dedupEntry)}
}

// admit claims seq for execution. fresh=true means the caller must execute
// the request and record the outcome via finish; fresh=false returns the
// existing entry (possibly still in flight — wait on entry.done before
// reading entry.resp). A seq that has already slid out of the window cannot
// be deduplicated and is refused.
func (w *dedupWindow) admit(seq uint64) (entry *dedupEntry, fresh bool, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if e, ok := w.entries[seq]; ok {
		return e, false, nil
	}
	if w.maxSeq >= uint64(w.window) && seq <= w.maxSeq-uint64(w.window) {
		return nil, false, fmt.Errorf("wire: seq %d below the replay window (newest %d, window %d)", seq, w.maxSeq, w.window)
	}
	e := &dedupEntry{seq: seq, done: make(chan struct{})}
	w.entries[seq] = e
	if seq > w.maxSeq {
		w.maxSeq = seq
		w.evict()
	}
	return e, true, nil
}

// finish records the executed request's response and releases any retries
// waiting on the entry.
func (w *dedupWindow) finish(e *dedupEntry, resp *Response) {
	w.mu.Lock()
	e.resp = resp
	w.mu.Unlock()
	close(e.done)
}

// collapse drops every entry except seq — called once a transaction
// reaches a terminal outcome, when no other recorded response can ever be
// replayed again. The surviving entry keeps commit/abort retries
// exactly-once until the sweep forgets the transaction entirely.
func (w *dedupWindow) collapse(seq uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	keep, ok := w.entries[seq]
	w.entries = make(map[uint64]*dedupEntry, 1)
	if ok {
		w.entries[seq] = keep
	}
}

// evict drops entries below the window. Caller holds the lock.
func (w *dedupWindow) evict() {
	if w.maxSeq < uint64(w.window) {
		return
	}
	floor := w.maxSeq - uint64(w.window)
	for seq := range w.entries {
		if seq <= floor {
			delete(w.entries, seq)
		}
	}
}

// response returns the recorded response (nil while in flight).
func (w *dedupWindow) response(e *dedupEntry) *Response {
	w.mu.Lock()
	defer w.mu.Unlock()
	return e.resp
}
