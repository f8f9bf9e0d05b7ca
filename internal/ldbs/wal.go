package ldbs

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sync"
	"time"

	"preserial/internal/obs"
	"preserial/internal/sem"
)

// recType discriminates WAL records.
type recType uint8

const (
	recBegin     recType = iota + 1 // transaction begin
	recSetCol                       // single column write
	recUpsertRow                    // whole-row insert/replace
	recDeleteRow                    // row delete
	recCommit                       // transaction commit (redo point)
	recAbort                        // transaction abort
)

// walRecord is the decoded form of one log record.
type walRecord struct {
	Type   recType
	TxID   uint64
	Table  string
	Key    string
	Column string
	Value  sem.Value
	Row    Row
}

// ErrCorruptWAL is wrapped by decode errors that indicate true corruption
// (as opposed to a torn tail, which recovery tolerates silently).
var ErrCorruptWAL = errors.New("ldbs: corrupt WAL record")

// maxWALRecord bounds a single record. A length or row-count field beyond
// it is treated as corruption rather than honored — otherwise a flipped
// length byte becomes a multi-gigabyte allocation during recovery.
const maxWALRecord = 16 << 20

// --- primitive encoders -------------------------------------------------

func putString(buf []byte, s string) []byte {
	var l [4]byte
	binary.BigEndian.PutUint32(l[:], uint32(len(s)))
	return append(append(buf, l[:]...), s...)
}

func getString(b []byte) (string, []byte, error) {
	if len(b) < 4 {
		return "", nil, fmt.Errorf("%w: short string header", ErrCorruptWAL)
	}
	n := binary.BigEndian.Uint32(b)
	b = b[4:]
	if uint32(len(b)) < n {
		return "", nil, fmt.Errorf("%w: short string body", ErrCorruptWAL)
	}
	return string(b[:n]), b[n:], nil
}

func putValue(buf []byte, v sem.Value) []byte {
	buf = append(buf, byte(v.Kind()))
	switch v.Kind() {
	case sem.KindNull:
	case sem.KindInt64:
		var x [8]byte
		binary.BigEndian.PutUint64(x[:], uint64(v.Int64()))
		buf = append(buf, x[:]...)
	case sem.KindFloat64:
		var x [8]byte
		binary.BigEndian.PutUint64(x[:], math.Float64bits(v.Float64()))
		buf = append(buf, x[:]...)
	case sem.KindString:
		buf = putString(buf, v.Text())
	}
	return buf
}

func getValue(b []byte) (sem.Value, []byte, error) {
	if len(b) < 1 {
		return sem.Value{}, nil, fmt.Errorf("%w: missing value kind", ErrCorruptWAL)
	}
	kind := sem.Kind(b[0])
	b = b[1:]
	switch kind {
	case sem.KindNull:
		return sem.Null(), b, nil
	case sem.KindInt64:
		if len(b) < 8 {
			return sem.Value{}, nil, fmt.Errorf("%w: short int64", ErrCorruptWAL)
		}
		return sem.Int(int64(binary.BigEndian.Uint64(b))), b[8:], nil
	case sem.KindFloat64:
		if len(b) < 8 {
			return sem.Value{}, nil, fmt.Errorf("%w: short float64", ErrCorruptWAL)
		}
		return sem.Float(math.Float64frombits(binary.BigEndian.Uint64(b))), b[8:], nil
	case sem.KindString:
		s, rest, err := getString(b)
		if err != nil {
			return sem.Value{}, nil, err
		}
		return sem.Str(s), rest, nil
	default:
		return sem.Value{}, nil, fmt.Errorf("%w: unknown value kind %d", ErrCorruptWAL, kind)
	}
}

// --- record codec --------------------------------------------------------

// encode serializes the record payload (without the length/CRC frame).
func (r walRecord) encode() []byte {
	buf := make([]byte, 0, 64)
	buf = append(buf, byte(r.Type))
	var tx [8]byte
	binary.BigEndian.PutUint64(tx[:], r.TxID)
	buf = append(buf, tx[:]...)
	switch r.Type {
	case recBegin, recCommit, recAbort:
	case recSetCol:
		buf = putString(buf, r.Table)
		buf = putString(buf, r.Key)
		buf = putString(buf, r.Column)
		buf = putValue(buf, r.Value)
	case recUpsertRow:
		buf = putString(buf, r.Table)
		buf = putString(buf, r.Key)
		var n [4]byte
		binary.BigEndian.PutUint32(n[:], uint32(len(r.Row)))
		buf = append(buf, n[:]...)
		for _, col := range r.Row.columns() { // sorted: deterministic bytes
			buf = putString(buf, col)
			buf = putValue(buf, r.Row[col])
		}
	case recDeleteRow:
		buf = putString(buf, r.Table)
		buf = putString(buf, r.Key)
	}
	return buf
}

// decodeRecord parses a payload produced by encode.
func decodeRecord(b []byte) (walRecord, error) {
	if len(b) < 9 {
		return walRecord{}, fmt.Errorf("%w: short header", ErrCorruptWAL)
	}
	r := walRecord{Type: recType(b[0]), TxID: binary.BigEndian.Uint64(b[1:9])}
	b = b[9:]
	var err error
	switch r.Type {
	case recBegin, recCommit, recAbort:
		return r, nil
	case recSetCol:
		if r.Table, b, err = getString(b); err != nil {
			return r, err
		}
		if r.Key, b, err = getString(b); err != nil {
			return r, err
		}
		if r.Column, b, err = getString(b); err != nil {
			return r, err
		}
		if r.Value, _, err = getValue(b); err != nil {
			return r, err
		}
		return r, nil
	case recUpsertRow:
		if r.Table, b, err = getString(b); err != nil {
			return r, err
		}
		if r.Key, b, err = getString(b); err != nil {
			return r, err
		}
		if len(b) < 4 {
			return r, fmt.Errorf("%w: short row header", ErrCorruptWAL)
		}
		n := binary.BigEndian.Uint32(b)
		b = b[4:]
		if int(n) > len(b) {
			// Each row entry needs at least one byte; a count beyond the
			// remaining payload is corruption (and an allocation bomb if
			// used as a map size hint).
			return r, fmt.Errorf("%w: row count %d exceeds payload", ErrCorruptWAL, n)
		}
		r.Row = make(Row, n)
		for i := uint32(0); i < n; i++ {
			var col string
			if col, b, err = getString(b); err != nil {
				return r, err
			}
			var v sem.Value
			if v, b, err = getValue(b); err != nil {
				return r, err
			}
			r.Row[col] = v
		}
		return r, nil
	case recDeleteRow:
		if r.Table, b, err = getString(b); err != nil {
			return r, err
		}
		if r.Key, _, err = getString(b); err != nil {
			return r, err
		}
		return r, nil
	default:
		return r, fmt.Errorf("%w: unknown record type %d", ErrCorruptWAL, r.Type)
	}
}

// Syncer is the optional flush-to-stable-storage capability of a WAL target
// (satisfied by *os.File).
type Syncer interface{ Sync() error }

// ErrWALPoisoned is returned by commits after a WAL flush or sync has
// failed. A failed sync leaves the log tail in doubt — some framing may
// have reached stable storage, so recovery could redo a commit whose
// Commit() returned an error. Refusing every subsequent commit guarantees
// no later transaction can be ordered after an in-doubt one; the operator
// restarts and recovers.
var ErrWALPoisoned = errors.New("ldbs: WAL poisoned by an earlier flush/sync failure")

// wal frames records as [u32 length][u32 crc32][payload] onto an io.Writer.
//
// Commits reach durability through the group-commit coordinator: each
// transaction appends its whole recBegin…recCommit frame under one hold of
// mu (per-transaction contiguity in the log), then waits in WaitDurable
// until a sync covering its commit LSN has completed. The first waiter
// becomes the leader and pays one Flush+Sync for every transaction that
// appended before the flush — followers ride along for free.
type wal struct {
	mu      sync.Mutex
	w       *bufio.Writer
	dst     io.Writer
	lsn     uint64 // records appended
	commits uint64 // commit frames appended (group-commit accounting)

	// Coordinator state, guarded by syncMu (never held across I/O).
	syncMu        sync.Mutex
	syncCond      *sync.Cond
	syncing       bool // a leader is flushing+syncing
	syncedLSN     uint64
	syncedCommits uint64
	poison        error

	// Live metrics, nil unless the DB was opened with Options.Obs.
	appends     *obs.Counter
	syncs       *obs.Counter
	syncLatency *obs.Histogram
	batchSize   *obs.Histogram // transactions per shared sync (unit: count)

	// hub, when non-nil, receives a copy of every sealed transaction group
	// for replication (repl.go). Guarded by mu.
	hub *replHub
}

func newWAL(dst io.Writer) *wal {
	l := &wal{w: bufio.NewWriter(dst), dst: dst}
	l.syncCond = sync.NewCond(&l.syncMu)
	return l
}

// frameRecord serializes one record with its [len][crc] frame — the exact
// bytes the WAL writes, reused verbatim by the replication stream.
func frameRecord(r walRecord) []byte {
	payload := r.encode()
	frame := make([]byte, 8, 8+len(payload))
	binary.BigEndian.PutUint32(frame[:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	return append(frame, payload...)
}

// appendFrameLocked buffers one pre-framed record; caller holds l.mu.
func (l *wal) appendFrameLocked(frame []byte) error {
	if _, err := l.w.Write(frame); err != nil {
		return fmt.Errorf("ldbs: wal append: %w", err)
	}
	l.lsn++
	if l.appends != nil {
		l.appends.Inc()
	}
	return nil
}

// appendLocked frames and buffers one record; caller holds l.mu.
func (l *wal) appendLocked(r walRecord) error {
	return l.appendFrameLocked(frameRecord(r))
}

// Append frames and buffers one record, returning its LSN (1-based).
func (l *wal) Append(r walRecord) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.appendLocked(r); err != nil {
		return 0, err
	}
	return l.lsn, nil
}

// AppendGroup appends a transaction's records under a single lock hold, so
// concurrent committers can never interleave frames inside another
// transaction's recBegin…recCommit window. Returns the LSN of the last
// record — the commit LSN WaitDurable takes. Fails fast once poisoned.
func (l *wal) AppendGroup(recs []walRecord) (uint64, error) {
	if err := l.poisoned(); err != nil {
		return 0, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var tap []byte
	first := l.lsn + 1
	for _, r := range recs {
		frame := frameRecord(r)
		if err := l.appendFrameLocked(frame); err != nil {
			return 0, err
		}
		if r.Type == recCommit {
			l.commits++
		}
		if l.hub != nil {
			tap = append(tap, frame...)
		}
	}
	// Publish the whole group as one sealed segment so a replication sender
	// can never observe a torn recBegin…recCommit window. Lock order:
	// wal.mu → replHub.mu (the hub never calls back into the wal).
	//
	//gtmlint:lockorder ldbs.wal.mu -> ldbs.replHub.mu
	if l.hub != nil && len(tap) > 0 {
		l.hub.publish(tap, first, l.lsn)
	}
	return l.lsn, nil
}

// setHub installs (or removes, with nil) the replication tap.
func (l *wal) setHub(h *replHub) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.hub = h
}

// waitReplAck blocks until a semi-sync follower has acknowledged lsn, the
// ack timeout degrades the stream, or no semi-sync hub is attached. Called
// by Tx.Commit after durability and apply, outside ckptMu.
func (l *wal) waitReplAck(lsn uint64) {
	l.mu.Lock()
	h := l.hub
	l.mu.Unlock()
	if h != nil {
		h.waitAck(lsn)
	}
}

// poisoned returns the poison error, if any.
func (l *wal) poisoned() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	return l.poison
}

// setPoison records the first flush/sync failure and wakes every waiter;
// caller holds syncMu.
func (l *wal) setPoisonLocked(err error) {
	if l.poison == nil {
		l.poison = fmt.Errorf("%w (first failure: %v)", ErrWALPoisoned, err)
	}
	l.syncCond.Broadcast()
}

// flushAndSync empties the buffer and syncs the destination, returning the
// LSN and commit count covered. Caller must NOT hold syncMu.
func (l *wal) flushAndSync() (coveredLSN, coveredCommits uint64, err error) {
	l.mu.Lock()
	coveredLSN = l.lsn
	coveredCommits = l.commits
	err = l.w.Flush()
	l.mu.Unlock()
	if err != nil {
		return 0, 0, fmt.Errorf("ldbs: wal flush: %w", err)
	}
	if s, ok := l.dst.(Syncer); ok {
		start := time.Now()
		if err := s.Sync(); err != nil {
			return 0, 0, fmt.Errorf("ldbs: wal sync: %w", err)
		}
		if l.syncs != nil {
			l.syncs.Inc()
			l.syncLatency.Observe(time.Since(start))
		}
	}
	return coveredLSN, coveredCommits, nil
}

// WaitDurable blocks until a sync covering lsn has completed, electing the
// calling goroutine leader when no sync is running: the leader flushes and
// syncs everything buffered so far, releasing itself and every follower
// whose commit LSN the flush covered. On failure the WAL is poisoned: this
// commit and every later one reports an error.
func (l *wal) WaitDurable(lsn uint64) error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	for {
		if l.syncedLSN >= lsn {
			return nil // durable — possibly via an earlier leader
		}
		if l.poison != nil {
			return l.poison
		}
		if l.syncing {
			l.syncCond.Wait()
			continue
		}
		l.syncing = true
		l.syncMu.Unlock()
		covered, commits, err := l.flushAndSync()
		l.syncMu.Lock()
		l.syncing = false
		if err != nil {
			l.setPoisonLocked(err)
			return err
		}
		if l.batchSize != nil && commits > l.syncedCommits {
			// The histogram reuses duration plumbing with 1s ≙ 1 tx:
			// _sum counts transactions, _count counts shared syncs.
			l.batchSize.Observe(time.Duration(commits-l.syncedCommits) * time.Second)
		}
		l.syncedLSN = covered
		l.syncedCommits = commits
		l.syncCond.Broadcast()
	}
}

// Flush empties the buffer and, when the destination supports it, syncs to
// stable storage — used by checkpoint/snapshot writers. Fails fast once
// poisoned.
func (l *wal) Flush() error {
	if err := l.poisoned(); err != nil {
		return err
	}
	covered, commits, err := l.flushAndSync()
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	if err != nil {
		l.setPoisonLocked(err)
		return err
	}
	if covered > l.syncedLSN {
		l.syncedLSN = covered
		l.syncedCommits = commits
	}
	return nil
}

// LSN returns the number of records appended so far.
func (l *wal) LSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lsn
}

// readWAL decodes records from r until EOF. A torn tail — a final record
// that is short or fails its CRC — ends the scan without error, matching
// crash semantics; corruption in the middle of the log is reported.
func readWAL(r io.Reader) ([]walRecord, error) {
	br := bufio.NewReader(r)
	var out []walRecord
	for {
		var hdr [8]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if err == io.EOF {
				return out, nil
			}
			return out, nil // torn header at tail
		}
		n := binary.BigEndian.Uint32(hdr[:4])
		sum := binary.BigEndian.Uint32(hdr[4:])
		if n > maxWALRecord {
			// A length this large is either corruption or a torn header;
			// if more bytes follow it cannot be a tail.
			if _, err := br.Peek(1); err == nil {
				return out, fmt.Errorf("%w: record length %d exceeds limit", ErrCorruptWAL, n)
			}
			return out, nil
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(br, payload); err != nil {
			return out, nil // torn payload at tail
		}
		if crc32.ChecksumIEEE(payload) != sum {
			// Cannot distinguish a torn tail from mid-log corruption without
			// looking ahead; if more bytes follow, it was corruption.
			if _, err := br.Peek(1); err == nil {
				return out, fmt.Errorf("%w: CRC mismatch at record %d", ErrCorruptWAL, len(out)+1)
			}
			return out, nil
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}
