// WAL replication: a primary DB ships sealed transaction groups to a
// follower that applies them in order.
//
// The stream reuses the WAL's own frame bytes. AppendGroup publishes each
// recBegin…recCommit group to a replHub as one sealed segment; a ReplSource
// serves attached followers from that buffer, falling back to a full
// snapshot (WriteSnapshot under the checkpoint lock, so the snapshot and
// its LSN align exactly) when a follower is cold, on a different stream
// incarnation, or behind the retained window. The follower appends each
// group to its own WAL and applies it in memory, fsyncs the batch, rewrites
// its cursor in place, and only then acknowledges the batch LSN: nothing is
// acked before it is durable on the follower.
//
// LSNs are per-process (the counter restarts at every Open and the WAL is
// truncated by checkpoints), so each ReplSource mints a random streamID;
// a cursor only resumes against the stream that minted it, and any
// mismatch forces a snapshot resync.
//
// Fencing: every message carries the sender's replication epoch. A
// follower rejects frames from an older epoch (zombie primary); a source
// refuses a follower from a newer epoch (this primary was deposed).
// Promotion increments and persists the epoch before serving writes.
//
// Semi-sync: with Options.SemiSync, Tx.Commit blocks after local
// durability until a follower acknowledges the commit LSN. A wait that
// exceeds AckTimeout degrades the stream to async (availability over
// replication; a counter records it) until the follower catches back up.
package ldbs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"preserial/internal/frame"
	"preserial/internal/ldbs/store"
	"preserial/internal/obs"
)

// --- wire codec ----------------------------------------------------------

// Replication message kinds.
const (
	replHello  = "hello"  // follower → source: streamID/epoch/cursor; source → follower: resume accepted
	replSnap   = "snap"   // source → follower: full snapshot at LSN, adopt streamID
	replFrames = "frames" // source → follower: sealed WAL frame bytes through LSN
	replAck    = "ack"    // follower → source: applied and durable through LSN
	replFence  = "fence"  // either side: epoch refused; Err says why
)

// replMsg is one length-prefixed JSON message on a replication conn, framed
// as the wire protocol's frames are (internal/frame).
type replMsg struct {
	Kind     string `json:"kind"`
	StreamID uint64 `json:"stream_id,omitempty"`
	Epoch    uint64 `json:"epoch"`
	LSN      uint64 `json:"lsn,omitempty"`
	Data     []byte `json:"data,omitempty"`
	Err      string `json:"err,omitempty"`
}

// maxReplMsg bounds one message (snapshots ride in a single message).
const maxReplMsg = 256 << 20

// writeReplMsg sends m as one frame in one Write.
func writeReplMsg(w io.Writer, m *replMsg) error {
	body, err := json.Marshal(m)
	if err != nil {
		return err
	}
	return frame.Write(w, body)
}

// readReplMsg reads one frame into m. Each connection end reads through its
// one *bufio.Reader.
func readReplMsg(r io.Reader, m *replMsg) error {
	body, err := frame.Read(r, maxReplMsg)
	if err != nil {
		return err
	}
	*m = replMsg{}
	return json.Unmarshal(body, m)
}

// --- epoch + cursor files ------------------------------------------------

const (
	replEpochName  = "REPL_EPOCH"
	replCursorName = "REPL_CURSOR"
)

type replEpochFile struct {
	Epoch uint64 `json:"epoch"`
}

type replCursorFile struct {
	StreamID uint64 `json:"stream_id"`
	LSN      uint64 `json:"lsn"`
	Epoch    uint64 `json:"epoch"`
}

// ReadReplEpoch returns the replication epoch persisted in dir (0 when the
// directory has never been fenced).
func ReadReplEpoch(dir string) (uint64, error) {
	b, err := os.ReadFile(filepath.Join(dir, replEpochName))
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	var f replEpochFile
	if err := json.Unmarshal(b, &f); err != nil {
		return 0, fmt.Errorf("ldbs: corrupt %s: %w", replEpochName, err)
	}
	return f.Epoch, nil
}

// WriteReplEpoch durably persists the replication epoch (temp file, sync,
// rename, directory sync): an epoch must never go backwards across a crash.
func WriteReplEpoch(dir string, epoch uint64) error {
	b, err := json.Marshal(replEpochFile{Epoch: epoch})
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, "epoch-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName)
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmpName, filepath.Join(dir, replEpochName)); err != nil {
		return err
	}
	return syncDir(dir)
}

// readReplCursor tolerates a missing or torn cursor by reporting zeros —
// the handshake then falls back to a snapshot resync.
func readReplCursor(dir string) replCursorFile {
	b, err := os.ReadFile(filepath.Join(dir, replCursorName))
	if err != nil {
		return replCursorFile{}
	}
	var c replCursorFile
	if json.Unmarshal(b, &c) != nil {
		return replCursorFile{}
	}
	return c
}

// replCursorWidth is REPL_CURSOR's fixed size: the longest cursor JSON (90
// bytes with three 20-digit numbers) padded with spaces. Every ack
// overwrites the record in place at offset 0, inside the first disk sector.
const replCursorWidth = 96

// openReplCursor opens dir's cursor file for in-place rewrites and gives it
// the fixed width once, holding cur — the cursor just read from it, so a
// file of any other size (one written as bare JSON, or garbage) is
// rewritten in the fixed format without moving the cursor.
func openReplCursor(dir string, cur replCursorFile) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, replCursorName), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err == nil && fi.Size() != replCursorWidth {
		if err = writeReplCursor(f, cur); err == nil {
			err = f.Truncate(replCursorWidth)
		}
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// writeReplCursor overwrites the acked cursor in place. No fsync and no
// rename: the cursor is advisory (written after the WAL fsync it
// describes), so a lost or torn write degrades to a resync — or to
// re-applying batches, which is idempotent — never to wrong data. Rewriting
// a held descriptor also skips the writeback a truncating rewrite forces.
func writeReplCursor(f *os.File, c replCursorFile) error {
	b, err := json.Marshal(c)
	if err != nil {
		return err
	}
	rec := bytes.Repeat([]byte{' '}, replCursorWidth)
	rec[replCursorWidth-1] = '\n'
	copy(rec, b)
	_, err = f.WriteAt(rec, 0)
	return err
}

// --- hub -----------------------------------------------------------------

// ErrReplLagged reports a follower whose cursor fell behind the retained
// replication window; the follower must resync from a snapshot.
var ErrReplLagged = errors.New("ldbs: follower behind retained replication window")

// errReplClosed ends a sender loop when the source shuts down.
var errReplClosed = errors.New("ldbs: replication source closed")

// replSeg is one sealed transaction group (or group-commit batch) in the
// hub's retained window.
type replSeg struct {
	data      []byte
	firstLSN  uint64
	lastLSN   uint64
	endOffset uint64 // cumulative published bytes through this segment
	at        time.Time
}

// replWaiter parks one semi-sync committer until its LSN is acked.
type replWaiter struct {
	lsn uint64
	ch  chan struct{}
}

// replCursor is one attached sender's liveness flag; the ack-reader
// goroutine closes it to unblock a sender parked in next.
type replCursor struct {
	closed bool
}

// replHub buffers sealed WAL segments between the appending side (under
// wal.mu) and any number of sender goroutines. Lock order: wal.mu →
// replHub.mu; the hub never calls into the wal or the DB.
type replHub struct {
	mu   sync.Mutex
	cond *sync.Cond

	segs     []replSeg
	baseLSN  uint64 // lastLSN of the newest segment trimmed from the front
	endLSN   uint64 // lastLSN of the newest published segment
	pubBytes uint64 // cumulative bytes published
	ackedOff uint64 // cumulative bytes covered by ackedLSN
	retained int    // bytes currently buffered
	maxBytes int
	closed   bool

	semiSync   bool
	ackTimeout time.Duration
	followers  int
	ackedLSN   uint64
	lastAck    time.Time
	degraded   bool
	waiters    map[*replWaiter]struct{}

	timeouts *obs.Counter // nil without a registry
}

func newReplHub(maxBytes int, semiSync bool, ackTimeout time.Duration) *replHub {
	h := &replHub{
		maxBytes:   maxBytes,
		semiSync:   semiSync,
		ackTimeout: ackTimeout,
		waiters:    make(map[*replWaiter]struct{}),
	}
	h.cond = sync.NewCond(&h.mu)
	return h
}

// publish appends one sealed segment, trimming the window to maxBytes.
func (h *replHub) publish(data []byte, firstLSN, lastLSN uint64) {
	cp := make([]byte, len(data))
	copy(cp, data)
	h.mu.Lock()
	defer h.mu.Unlock()
	h.pubBytes += uint64(len(cp))
	h.retained += len(cp)
	h.endLSN = lastLSN
	h.segs = append(h.segs, replSeg{data: cp, firstLSN: firstLSN, lastLSN: lastLSN,
		endOffset: h.pubBytes, at: time.Now()})
	for h.retained > h.maxBytes && len(h.segs) > 1 {
		h.baseLSN = h.segs[0].lastLSN
		h.retained -= len(h.segs[0].data)
		h.segs[0].data = nil
		h.segs = h.segs[1:]
	}
	h.cond.Broadcast()
}

// segAfter returns the index of the first retained segment that starts
// after lsn (len(segs): none). Segments are published in LSN order and
// trimmed from the front, so a binary search finds it; caller holds mu.
func (h *replHub) segAfter(lsn uint64) int {
	return sort.Search(len(h.segs), func(i int) bool { return h.segs[i].firstLSN > lsn })
}

// segThrough returns the number of retained segments that end at or
// before lsn, which is also the index of the first one that ends after
// it; caller holds mu.
func (h *replHub) segThrough(lsn uint64) int {
	return sort.Search(len(h.segs), func(i int) bool { return h.segs[i].lastLSN > lsn })
}

// has reports whether a follower at cursor can resume incrementally.
func (h *replHub) has(cursor uint64) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return cursor >= h.baseLSN && cursor <= h.endLSN
}

// next blocks until segments beyond `after` exist, returning their joined
// bytes and the covered end LSN. It fails with ErrReplLagged when the
// window moved past the cursor, errReplClosed on source shutdown, or
// io.ErrClosedPipe when this sender's conn died.
func (h *replHub) next(c *replCursor, after uint64) ([]byte, uint64, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for {
		if c.closed {
			return nil, 0, io.ErrClosedPipe
		}
		if h.closed {
			return nil, 0, errReplClosed
		}
		if after < h.baseLSN {
			return nil, 0, ErrReplLagged
		}
		if i := h.segAfter(after); i < len(h.segs) {
			first := h.segs[i].endOffset - uint64(len(h.segs[i].data))
			out := make([]byte, 0, h.pubBytes-first)
			for _, s := range h.segs[i:] {
				out = append(out, s.data...)
			}
			return out, h.segs[len(h.segs)-1].lastLSN, nil
		}
		h.cond.Wait()
	}
}

// closeCursor detaches one sender and wakes it if parked in next.
func (h *replHub) closeCursor(c *replCursor) {
	h.mu.Lock()
	defer h.mu.Unlock()
	c.closed = true
	h.cond.Broadcast()
}

// attach registers a live follower; semi-sync waits only arm while at
// least one follower is attached.
func (h *replHub) attach() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.followers++
}

// detach releases every parked committer when the last follower leaves:
// with nobody to wait for, semi-sync is moot.
func (h *replHub) detach() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.followers--
	if h.followers <= 0 {
		h.releaseWaitersLocked()
	}
}

// ack records a follower acknowledgment through lsn.
func (h *replHub) ack(lsn uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if lsn <= h.ackedLSN {
		return
	}
	h.ackedLSN = lsn
	h.lastAck = time.Now()
	if lsn >= h.endLSN {
		h.ackedOff = h.pubBytes
		h.degraded = false // follower caught up: re-arm semi-sync
	} else if i := h.segThrough(lsn); i > 0 && h.segs[i-1].endOffset > h.ackedOff {
		h.ackedOff = h.segs[i-1].endOffset
	}
	for w := range h.waiters {
		if w.lsn <= lsn {
			close(w.ch)
			delete(h.waiters, w)
		}
	}
}

// waitAck parks the caller until lsn is acked, the stream degrades, or no
// semi-sync follower is attached.
func (h *replHub) waitAck(lsn uint64) {
	h.mu.Lock()
	if !h.semiSync || h.followers <= 0 || h.closed || h.degraded || h.ackedLSN >= lsn {
		h.mu.Unlock()
		return
	}
	w := &replWaiter{lsn: lsn, ch: make(chan struct{})}
	h.waiters[w] = struct{}{}
	h.mu.Unlock()

	t := time.NewTimer(h.ackTimeout)
	defer t.Stop()
	select {
	case <-w.ch:
	case <-t.C:
		h.mu.Lock()
		if _, still := h.waiters[w]; still {
			delete(h.waiters, w)
			h.degraded = true
			if h.timeouts != nil {
				h.timeouts.Inc()
			}
			// Degrading is stream-wide: release everyone else too.
			h.releaseWaitersLocked()
		}
		h.mu.Unlock()
	}
}

// releaseWaitersLocked frees every parked committer; caller holds mu.
func (h *replHub) releaseWaitersLocked() {
	for w := range h.waiters {
		close(w.ch)
		delete(h.waiters, w)
	}
}

// close shuts the hub down and frees every parked goroutine.
func (h *replHub) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.closed = true
	h.releaseWaitersLocked()
	h.cond.Broadcast()
}

// lag reports published-but-unacked bytes and the age of the oldest
// unacked segment.
func (h *replHub) lag() (bytes uint64, seconds float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.ackedLSN >= h.endLSN {
		return 0, 0
	}
	bytes = h.pubBytes - h.ackedOff
	if i := h.segThrough(h.ackedLSN); i < len(h.segs) {
		seconds = time.Since(h.segs[i].at).Seconds()
	}
	return bytes, seconds
}

// --- source (primary side) -----------------------------------------------

// ReplSourceOptions configures a ReplSource.
type ReplSourceOptions struct {
	// Epoch is this primary's fencing epoch (ReadReplEpoch of its dir).
	Epoch uint64
	// StreamID overrides the minted stream incarnation id (tests only).
	StreamID uint64
	// SemiSync makes Tx.Commit wait for a follower ack after local
	// durability, with AckTimeout degrading to async.
	SemiSync   bool
	AckTimeout time.Duration // default 2s
	// MaxBuffer bounds retained stream bytes; a follower that falls
	// further behind resyncs from a snapshot. Default 8 MiB.
	MaxBuffer int
	// Obs, when non-nil, receives repl_* counters.
	Obs *obs.Registry
}

// ReplStatus is a point-in-time view of a replication source.
type ReplStatus struct {
	StreamID   uint64
	Epoch      uint64
	LSN        uint64 // primary WAL position
	AckedLSN   uint64 // highest follower-acked LSN
	LagBytes   uint64
	LagSeconds float64
	Followers  int
	Degraded   bool // semi-sync timed out and fell back to async
}

// ReplSource taps a DB's WAL and serves the stream to followers. One
// source serves any number of followers; each Serve call handles one
// follower conn and blocks until it drops or the source closes.
type ReplSource struct {
	db       *DB
	hub      *replHub
	epoch    uint64
	streamID uint64

	mu     sync.Mutex
	conns  map[io.Closer]struct{}
	closed bool

	framesShipped *obs.Counter
	bytesShipped  *obs.Counter
	resyncs       *obs.Counter
	fenceRejects  *obs.Counter
}

// replStreamSeq salts minted stream ids so two sources created in the same
// nanosecond (tests) cannot collide.
var (
	replStreamMu  sync.Mutex
	replStreamSeq uint64
)

func mintStreamID() uint64 {
	replStreamMu.Lock()
	defer replStreamMu.Unlock()
	replStreamSeq++
	return uint64(time.Now().UnixNano())<<8 | (replStreamSeq & 0xff)
}

// NewReplSource attaches a replication tap to db's WAL.
func NewReplSource(db *DB, opts ReplSourceOptions) (*ReplSource, error) {
	if db.log == nil {
		return nil, errors.New("ldbs: replication requires a WAL-backed DB")
	}
	if opts.AckTimeout <= 0 {
		opts.AckTimeout = 2 * time.Second
	}
	if opts.MaxBuffer <= 0 {
		opts.MaxBuffer = 8 << 20
	}
	if opts.StreamID == 0 {
		opts.StreamID = mintStreamID()
	}
	s := &ReplSource{
		db:       db,
		hub:      newReplHub(opts.MaxBuffer, opts.SemiSync, opts.AckTimeout),
		epoch:    opts.Epoch,
		streamID: opts.StreamID,
		conns:    make(map[io.Closer]struct{}),
	}
	if opts.Obs != nil {
		s.framesShipped = opts.Obs.Counter(obs.NameReplFramesShipped, "Replication frame batches sent to followers.")
		s.bytesShipped = opts.Obs.Counter(obs.NameReplBytesShipped, "Replication WAL bytes sent to followers.")
		s.resyncs = opts.Obs.Counter(obs.NameReplResyncs, "Full snapshot catch-ups served to cold or lagged followers.")
		s.fenceRejects = opts.Obs.Counter(obs.NameReplFenceRejects, "Replication peers refused for a stale epoch.")
		s.hub.timeouts = opts.Obs.Counter(obs.NameReplSemisyncTimeouts, "Semi-sync ack waits that timed out and degraded to async.")
	}
	db.log.setHub(s.hub)
	return s, nil
}

// Epoch returns the source's fencing epoch.
func (s *ReplSource) Epoch() uint64 { return s.epoch }

// Status reports the source's replication position and lag.
func (s *ReplSource) Status() ReplStatus {
	lagBytes, lagSeconds := s.hub.lag()
	s.hub.mu.Lock()
	acked, followers, degraded := s.hub.ackedLSN, s.hub.followers, s.hub.degraded
	s.hub.mu.Unlock()
	return ReplStatus{
		StreamID: s.streamID, Epoch: s.epoch, LSN: s.db.log.LSN(),
		AckedLSN: acked, LagBytes: lagBytes, LagSeconds: lagSeconds,
		Followers: followers, Degraded: degraded,
	}
}

// Close detaches the WAL tap and severs every follower.
func (s *ReplSource) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	conns := make([]io.Closer, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	s.db.log.setHub(nil)
	s.hub.close()
	for _, c := range conns {
		c.Close()
	}
}

func (s *ReplSource) track(c io.Closer) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[c] = struct{}{}
	return true
}

func (s *ReplSource) untrack(c io.Closer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.conns, c)
}

// snapshotForResync captures a snapshot aligned with its WAL LSN. Taking
// the checkpoint lock excludes commits (they hold the read side across
// log-then-apply), so the returned LSN is exactly the snapshot's edge.
func (s *ReplSource) snapshotForResync() ([]byte, uint64, error) {
	s.db.ckptMu.Lock()
	defer s.db.ckptMu.Unlock()
	lsn := s.db.log.LSN()
	var buf bytes.Buffer
	if err := s.db.WriteSnapshot(&buf); err != nil {
		return nil, 0, err
	}
	return buf.Bytes(), lsn, nil
}

// Serve replicates to one follower over conn, blocking until the conn
// drops, the follower is fenced, or the source closes.
func (s *ReplSource) Serve(conn io.ReadWriteCloser) error {
	if !s.track(conn) {
		conn.Close()
		return errReplClosed
	}
	defer s.untrack(conn)
	defer conn.Close()

	br := bufio.NewReader(conn) // the handshake's, then the ack reader's
	var hello replMsg
	if err := readReplMsg(br, &hello); err != nil {
		return fmt.Errorf("ldbs: repl handshake: %w", err)
	}
	if hello.Kind != replHello {
		return fmt.Errorf("ldbs: repl handshake: unexpected %q", hello.Kind)
	}
	if hello.Epoch > s.epoch {
		// The follower has seen a newer epoch: this primary was deposed.
		if s.fenceRejects != nil {
			s.fenceRejects.Inc()
		}
		_ = writeReplMsg(conn, &replMsg{Kind: replFence, Epoch: s.epoch,
			Err: fmt.Sprintf("primary fenced: follower epoch %d > %d", hello.Epoch, s.epoch)})
		return fmt.Errorf("ldbs: repl: fenced by follower epoch %d (own %d)", hello.Epoch, s.epoch)
	}

	cursor := hello.LSN
	if hello.StreamID != s.streamID || !s.hub.has(cursor) {
		snap, lsn, err := s.snapshotForResync()
		if err != nil {
			return err
		}
		// Count before the blocking write: the follower can apply the
		// snapshot (and observers read the counter) before this goroutine
		// resumes.
		if s.resyncs != nil {
			s.resyncs.Inc()
		}
		if err := writeReplMsg(conn, &replMsg{Kind: replSnap, StreamID: s.streamID,
			Epoch: s.epoch, LSN: lsn, Data: snap}); err != nil {
			return err
		}
		cursor = lsn
	} else if err := writeReplMsg(conn, &replMsg{Kind: replHello, StreamID: s.streamID,
		Epoch: s.epoch, LSN: cursor}); err != nil {
		return err
	}

	s.hub.attach()
	defer s.hub.detach()

	// Ack reader: drains follower acks; on conn death it closes the cursor
	// so the sender parked in hub.next wakes up.
	rc := &replCursor{}
	ackDone := make(chan struct{})
	go func() {
		defer close(ackDone)
		defer s.hub.closeCursor(rc)
		for {
			var m replMsg
			if err := readReplMsg(br, &m); err != nil {
				return
			}
			if m.Kind == replAck {
				s.hub.ack(m.LSN)
			}
		}
	}()
	defer func() { conn.Close(); <-ackDone }()

	for {
		data, end, err := s.hub.next(rc, cursor)
		if err != nil {
			if errors.Is(err, errReplClosed) {
				return nil
			}
			return err
		}
		if err := writeReplMsg(conn, &replMsg{Kind: replFrames, Epoch: s.epoch,
			LSN: end, Data: data}); err != nil {
			return err
		}
		if s.framesShipped != nil {
			s.framesShipped.Inc()
			s.bytesShipped.Add(uint64(len(data)))
		}
		cursor = end
	}
}

// --- replica (follower side) ---------------------------------------------

// ReplicaOptions configures a follower.
type ReplicaOptions struct {
	// Dir is the follower's own persistence directory.
	Dir string
	// Schemas must cover every table the primary's WAL may reference.
	Schemas []Schema
	// Store selects the follower's storage driver by registered name
	// ("mem", "disk"); empty means "mem". A follower may run a different
	// driver than its primary — replication ships WAL records, not pages.
	Store string
	// PageCacheBytes bounds the disk driver's page cache (0 = driver
	// default). Ignored by the mem driver.
	PageCacheBytes int64
	// Obs, when non-nil, receives repl_txs_applied_total.
	Obs *obs.Registry
	// Logf, when non-nil, receives replication lifecycle messages.
	Logf func(format string, args ...any)
}

// Replica is a follower database: it ingests the primary's WAL stream,
// applies committed groups durable-first, and can be promoted.
type Replica struct {
	dir     string
	schemas []Schema
	pers    *Persistence
	db      *DB
	logf    func(string, ...any)

	txsApplied *obs.Counter

	mu       sync.Mutex
	epoch    uint64
	streamID uint64
	cursor   uint64
	cursorF  *os.File // REPL_CURSOR, held open and rewritten in place
	conn     io.Closer
	closed   bool
}

// OpenReplica recovers (or creates) a follower in dir.
func OpenReplica(opts ReplicaOptions) (*Replica, error) {
	pers := &Persistence{Dir: opts.Dir, Obs: opts.Obs,
		Store: opts.Store, PageCacheBytes: opts.PageCacheBytes}
	db, err := pers.Open(opts.Schemas)
	if err != nil {
		return nil, err
	}
	epoch, err := ReadReplEpoch(opts.Dir)
	if err != nil {
		pers.Close()
		return nil, err
	}
	r := &Replica{dir: opts.Dir, schemas: opts.Schemas, pers: pers, db: db,
		logf: opts.Logf, epoch: epoch}
	if r.logf == nil {
		r.logf = func(string, ...any) {}
	}
	if opts.Obs != nil {
		r.txsApplied = opts.Obs.Counter(obs.NameReplTxsApplied, "Committed transaction groups applied from the replication stream.")
	}
	cur := readReplCursor(opts.Dir)
	if r.cursorF, err = openReplCursor(opts.Dir, cur); err != nil {
		pers.Close()
		return nil, err
	}
	r.streamID, r.cursor = cur.StreamID, cur.LSN
	if cur.Epoch > r.epoch {
		r.epoch = cur.Epoch
	}
	return r, nil
}

// DB exposes the follower's live database (read-only use: lag checks,
// oracles; writes belong to the stream until promotion).
func (r *Replica) DB() *DB { return r.db }

// Epoch returns the highest replication epoch the follower has seen.
func (r *Replica) Epoch() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.epoch
}

// Cursor returns the primary LSN applied and durable locally.
func (r *Replica) Cursor() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cursor
}

// Run ingests the stream, redialing with backoff until stop closes or the
// replica is closed/promoted.
func (r *Replica) Run(dial func() (io.ReadWriteCloser, error), stop <-chan struct{}) {
	backoff := 50 * time.Millisecond
	for {
		select {
		case <-stop:
			return
		default:
		}
		if r.isClosed() {
			return
		}
		conn, err := dial()
		if err == nil {
			err = r.serveConn(conn, stop)
			if err == nil || errors.Is(err, io.EOF) {
				backoff = 50 * time.Millisecond
			}
		}
		if err != nil {
			r.logf("ldbs replica: stream interrupted: %v", err)
		}
		select {
		case <-stop:
			return
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > time.Second {
			backoff = time.Second
		}
	}
}

func (r *Replica) isClosed() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.closed
}

// serveConn runs one connection's handshake + ingest loop.
func (r *Replica) serveConn(conn io.ReadWriteCloser, stop <-chan struct{}) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		conn.Close()
		return errReplClosed
	}
	r.conn = conn
	hello := replMsg{Kind: replHello, StreamID: r.streamID, Epoch: r.epoch, LSN: r.cursor}
	r.mu.Unlock()
	defer func() {
		r.mu.Lock()
		if r.conn == conn {
			r.conn = nil
		}
		r.mu.Unlock()
		conn.Close()
	}()

	// Unblock reads when stop closes: the reader only notices via conn.Close.
	hDone := make(chan struct{})
	defer close(hDone)
	go func() {
		select {
		case <-stop:
			conn.Close()
		case <-hDone:
		}
	}()

	if err := writeReplMsg(conn, &hello); err != nil {
		return err
	}
	br := bufio.NewReader(conn)
	var m replMsg
	if err := readReplMsg(br, &m); err != nil {
		return err
	}
	switch m.Kind {
	case replFence:
		return fmt.Errorf("ldbs replica: fenced by source: %s", m.Err)
	case replSnap:
		if err := r.adoptSnapshot(&m); err != nil {
			return err
		}
		r.logf("ldbs replica: resynced from snapshot at LSN %d (stream %d, epoch %d)",
			m.LSN, m.StreamID, m.Epoch)
	case replHello:
		r.mu.Lock()
		if m.Epoch > r.epoch {
			r.epoch = m.Epoch
		}
		r.mu.Unlock()
	default:
		return fmt.Errorf("ldbs replica: unexpected handshake reply %q", m.Kind)
	}
	if err := r.sendAck(conn); err != nil {
		return err
	}

	for {
		if err := readReplMsg(br, &m); err != nil {
			return err
		}
		switch m.Kind {
		case replFrames:
			if m.Epoch < r.Epoch() {
				return fmt.Errorf("ldbs replica: rejecting frames from stale epoch %d (own %d)",
					m.Epoch, r.Epoch())
			}
			if err := r.applyFrames(m.Data, m.LSN, m.Epoch); err != nil {
				return err
			}
			if err := r.sendAck(conn); err != nil {
				return err
			}
		case replFence:
			return fmt.Errorf("ldbs replica: fenced by source: %s", m.Err)
		default:
			return fmt.Errorf("ldbs replica: unexpected message %q", m.Kind)
		}
	}
}

// sendAck sends the current cursor as an acknowledgment.
func (r *Replica) sendAck(conn io.Writer) error {
	r.mu.Lock()
	cursor := r.cursor
	r.mu.Unlock()
	return writeReplMsg(conn, &replMsg{Kind: replAck, LSN: cursor})
}

// adoptSnapshot replaces the follower's state with the primary's snapshot,
// checkpoints it (so the snapshot is durable locally and the follower's
// own WAL restarts empty), and moves the cursor to the snapshot LSN.
func (r *Replica) adoptSnapshot(m *replMsg) error {
	recs, err := readWAL(bytes.NewReader(m.Data))
	if err != nil {
		return fmt.Errorf("ldbs replica: decode snapshot: %w", err)
	}
	// Deletes for every current row, then the snapshot's upserts; going
	// through applyWrites keeps indexes and version retention consistent.
	var writes []writeOp
	r.db.mu.RLock()
	for _, table := range r.db.tablesLocked() {
		tbl, ok := r.db.driver.Table(table)
		if !ok {
			continue
		}
		if err := tbl.Scan(func(key string, _ store.Row) bool {
			writes = append(writes, writeOp{typ: recDeleteRow, table: table, key: key})
			return true
		}); err != nil {
			r.db.mu.RUnlock()
			return err
		}
	}
	r.db.mu.RUnlock()
	maxTx := uint64(0)
	for _, rec := range recs {
		if rec.TxID > maxTx {
			maxTx = rec.TxID
		}
		if rec.Type == recUpsertRow {
			writes = append(writes, writeOp{typ: recUpsertRow, table: rec.Table, key: rec.Key, row: rec.Row})
		}
	}
	//lint:ignore gtmlint/durability snapshot adoption applies in memory first on purpose: nothing is acked until the Checkpoint below lands and the cursor moves, and a crash in between just repeats the resync
	if err := r.db.applyWrites(writes); err != nil {
		return err
	}
	r.advanceNextTx(maxTx)
	if err := r.pers.Checkpoint(r.db); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.streamID = m.StreamID
	r.cursor = m.LSN
	if m.Epoch > r.epoch {
		r.epoch = m.Epoch
	}
	return r.persistCursorLocked()
}

// applyFrames ingests one batch of sealed WAL frames: append each
// committed group to the follower's own WAL and apply it to memory, fsync
// the batch, then advance the cursor. Re-applied batches (after a lost or
// torn cursor) are idempotent — every record carries absolute values.
func (r *Replica) applyFrames(data []byte, end uint64, epoch uint64) error {
	recs, err := readWAL(bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("ldbs replica: decode frames: %w", err)
	}
	var group []walRecord
	for _, rec := range recs {
		switch rec.Type {
		case recBegin:
			group = group[:0]
			group = append(group, rec)
		case recCommit:
			group = append(group, rec)
			if err := r.applyGroup(group); err != nil {
				return err
			}
			group = nil
		case recAbort:
			group = nil
		default:
			group = append(group, rec)
		}
	}
	if r.db.log != nil {
		if err := r.db.log.Flush(); err != nil {
			return err
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cursor = end
	if epoch > r.epoch {
		r.epoch = epoch
	}
	return r.persistCursorLocked()
}

// persistCursorLocked rewrites REPL_CURSOR from the in-memory cursor.
// Callers hold r.mu, which orders the write before Close/Promote release
// the file.
func (r *Replica) persistCursorLocked() error {
	if r.closed {
		return errReplClosed
	}
	return writeReplCursor(r.cursorF, replCursorFile{StreamID: r.streamID, LSN: r.cursor, Epoch: r.epoch})
}

// applyGroup logs one committed group locally and applies it to the store.
func (r *Replica) applyGroup(recs []walRecord) error {
	if r.db.log != nil {
		if _, err := r.db.log.AppendGroup(recs); err != nil {
			return err
		}
	}
	writes := make([]writeOp, 0, len(recs))
	maxTx := uint64(0)
	for _, rec := range recs {
		if rec.TxID > maxTx {
			maxTx = rec.TxID
		}
		switch rec.Type {
		case recSetCol:
			writes = append(writes, writeOp{typ: recSetCol, table: rec.Table, key: rec.Key,
				column: rec.Column, value: rec.Value})
		case recUpsertRow:
			writes = append(writes, writeOp{typ: recUpsertRow, table: rec.Table, key: rec.Key, row: rec.Row})
		case recDeleteRow:
			writes = append(writes, writeOp{typ: recDeleteRow, table: rec.Table, key: rec.Key})
		}
	}
	if err := r.db.applyWrites(writes); err != nil {
		return err
	}
	r.advanceNextTx(maxTx)
	if r.txsApplied != nil {
		r.txsApplied.Inc()
	}
	return nil
}

// advanceNextTx keeps locally minted tx ids ahead of replicated ones.
func (r *Replica) advanceNextTx(maxTx uint64) {
	for {
		cur := r.db.nextTx.Load()
		if cur >= maxTx || r.db.nextTx.CompareAndSwap(cur, maxTx) {
			return
		}
	}
}

// Close stops ingestion and releases the directory.
func (r *Replica) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	conn := r.conn
	r.conn = nil
	r.cursorF.Close()
	r.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	return r.pers.Close()
}

// Promote fences the directory at newEpoch and seals the follower's state:
// ingestion stops, applied state is checkpointed, and the epoch is
// persisted so any surviving older primary is rejected on reconnect. The
// directory can then be reopened as a primary. Returns the promoted
// cursor (the highest primary LSN applied here).
func (r *Replica) Promote(newEpoch uint64) (uint64, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return 0, errors.New("ldbs replica: already closed")
	}
	if newEpoch <= r.epoch {
		newEpoch = r.epoch + 1
	}
	r.closed = true
	conn := r.conn
	r.conn = nil
	cursor := r.cursor
	r.cursorF.Close()
	r.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	if err := r.pers.Checkpoint(r.db); err != nil {
		r.pers.Close()
		return 0, err
	}
	if err := WriteReplEpoch(r.dir, newEpoch); err != nil {
		r.pers.Close()
		return 0, err
	}
	// The cursor names a dead stream; drop it so a future follower role
	// for this directory starts from a snapshot.
	os.Remove(filepath.Join(r.dir, replCursorName))
	if err := r.pers.Close(); err != nil {
		return 0, err
	}
	return cursor, nil
}
