package shard

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"preserial/internal/wire"
)

// The coordinator's write-ahead log. A cross-shard commit's point of no
// return is the fsynced decide record: before it, crash recovery presumes
// abort (participants' prepared state is volatile, their slots unwind with
// the restart); after it, recovery must drive every participant's write
// set to durability, which the done record acknowledges. Only the decide
// record is forced: the done record is written without an fsync, presumed
// abort's unforced end record (R*, Mohan, Lindsay & Obermarck, TODS 1986).
// The next decide's fsync covers it; a done record a crash loses only
// re-resolves its decision at reopen, which the participants' decision
// markers make exactly-once. The log is tiny — one decide + one done per
// cross-shard transaction, truncated at every reopen to just the
// still-pending decisions.

// Participant is one shard's slice of a logged commit decision: the staged
// write set and the decision marker that makes re-applying it idempotent.
type Participant struct {
	Shard  int                 `json:"shard"`
	Marker wire.SSTWriteJSON   `json:"marker"`
	Writes []wire.SSTWriteJSON `json:"writes"`
}

// Decision is one logged cross-shard commit decision.
type Decision struct {
	Tx           string        `json:"tx"`
	Participants []Participant `json:"participants"`
}

// recordKind is the coordinator-log record discriminator. Switches over
// it must be exhaustive (gtmlint/statexhaustive): recovery that silently
// skipped a new record kind would mis-reconstruct the in-doubt set.
//
//gtmlint:exhaustive
type recordKind string

// Coordinator-log record kinds.
const (
	recordDecide recordKind = "decide" // a commit decision with its full payload
	recordDone   recordKind = "done"   // every participant's decided SST is durable
)

// logRecord is the on-disk record: a decide (with payload) or a done.
// The embedded Decision flattens into the record's JSON object.
type logRecord struct {
	Kind recordKind `json:"kind"`
	Decision
}

// CoordLog is the coordinator's decision WAL: length-prefixed JSON
// records, decides fsynced per append, recovered tolerant of a torn tail.
type CoordLog struct {
	mu   sync.Mutex
	path string
	f    *os.File
}

// OpenCoordLog opens (or creates) the log at path and returns the
// decisions that were logged but never acknowledged done — the in-doubt
// set recovery must resolve. The recovered prefix is compacted back to
// just those pending records.
func OpenCoordLog(path string) (*CoordLog, []Decision, error) {
	pending, err := readPending(path)
	if err != nil {
		return nil, nil, err
	}
	// Compact: rewrite only the pending decisions, drop settled pairs and
	// any torn tail.
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return nil, nil, err
	}
	for _, d := range pending {
		if err := wire.WriteMsg(f, &logRecord{Kind: recordDecide, Decision: d}); err != nil {
			f.Close()
			return nil, nil, err
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, nil, err
	}
	if err := os.Rename(tmp, path); err != nil {
		f.Close()
		return nil, nil, err
	}
	l := &CoordLog{path: path, f: f}
	return l, pending, nil
}

// readPending replays the log, returning decisions without a matching
// done. A torn or corrupt tail record (the crash interrupted an append)
// ends the replay — everything before the last decide is intact because
// that decide's fsync covered it, and what follows it holds only done
// records, whose loss re-resolves their decisions.
func readPending(path string) ([]Decision, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	byTx := make(map[string]int) // tx → index into order; -1 = settled
	var order []Decision
	for {
		var rec logRecord
		if err := wire.ReadMsg(br, &rec); err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			// Torn tail: an interrupted append is expected after a crash.
			break
		}
		switch rec.Kind {
		case recordDecide:
			byTx[rec.Tx] = len(order)
			order = append(order, rec.Decision)
		case recordDone:
			if i, ok := byTx[rec.Tx]; ok && i >= 0 {
				order[i].Tx = ""
				byTx[rec.Tx] = -1
			}
		}
	}
	var pending []Decision
	for _, d := range order {
		if d.Tx != "" {
			pending = append(pending, d)
		}
	}
	return pending, nil
}

// append writes one record in one write(2), fsyncing it when force is set.
func (l *CoordLog) append(rec *logRecord, force bool) error {
	if l == nil {
		return nil // volatile cluster: decisions are not logged
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return fmt.Errorf("shard: coordinator log is closed")
	}
	if err := wire.WriteMsg(l.f, rec); err != nil || !force {
		return err
	}
	return l.f.Sync()
}

// LogDecide makes a commit decision durable — the transaction's commit
// point. Must return before any participant is told to commit.
func (l *CoordLog) LogDecide(d Decision) error {
	return l.append(&logRecord{Kind: recordDecide, Decision: d}, true)
}

// LogDone records that every participant's decided SST is durable; the
// decision will be dropped at the next compaction. The record is not
// forced (see the log's header comment).
func (l *CoordLog) LogDone(tx string) error {
	return l.append(&logRecord{Kind: recordDone, Decision: Decision{Tx: tx}}, false)
}

// Close releases the log file.
func (l *CoordLog) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}
