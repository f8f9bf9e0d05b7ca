package main

import (
	"fmt"
	"time"

	"preserial/internal/ldbs"
)

// The correctness oracle. Every client owns a disjoint partition of the
// objects and runs its transactions one call at a time, so the order in
// which commits on an object are acknowledged is the owning client's
// program order. Each client therefore keeps an exact model — add/sub: v−1,
// assign: v = x, applied when the commit is acknowledged — and after the run
// the value read back through ldbs must equal the model, on the live stack
// and again after the stack was closed and reopened from its directories.

// newModel returns a model of n objects at the seeded value. Clients write
// only the elements of their own partition.
func newModel(n int) []int64 {
	m := make([]int64, n)
	for i := range m {
		m[i] = seatsPerRow
	}
	return m
}

// checkModel reads every object back and counts those that differ.
func checkModel(model []int64, read func(obj int) (int64, error)) (checked, mismatches int, first string, err error) {
	for obj, want := range model {
		got, err := read(obj)
		if err != nil {
			return checked, mismatches, first, fmt.Errorf("reading object %d back: %w", obj, err)
		}
		checked++
		if got != want {
			mismatches++
			if first == "" {
				first = fmt.Sprintf("%s = %d, model says %d", seatObject(obj), got, want)
			}
		}
	}
	return checked, mismatches, first, nil
}

// reopenAndCheck is the durability oracle of the single-directory workloads:
// open the directory the way a restarted process would (driver state, then
// WAL redo — the timed part), and compare every row with the model. redo is
// the number of commits the WAL held beyond the last checkpoint.
func reopenAndCheck(dir, driver string, redo int64, model []int64) (recoverReport, error) {
	rep := recoverReport{Durable: true, Commits: redo}
	pers := &ldbs.Persistence{Dir: dir, Store: driver}
	start := time.Now()
	db, err := pers.Open(seatsSchemas())
	if err != nil {
		return rep, fmt.Errorf("reopening %s: %w", dir, err)
	}
	rep.Elapsed = time.Since(start)
	defer pers.Close()
	rep.Checked, rep.Mismatches, rep.First, err = checkModel(model, func(obj int) (int64, error) { return readSeat(db, obj) })
	return rep, err
}

// commitShare is the percentage of finished transactions that committed.
func commitShare(recs ...*recorder) float64 {
	var committed, aborted int64
	for _, r := range recs {
		committed += r.committed
		aborted += r.aborted
	}
	if committed+aborted == 0 {
		return 0
	}
	return 100 * float64(committed) / float64(committed+aborted)
}
