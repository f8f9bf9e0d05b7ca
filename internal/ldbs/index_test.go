package ldbs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"preserial/internal/sem"
)

func TestCreateIndexValidation(t *testing.T) {
	db := newFlightDB(t)
	if err := db.CreateIndex("Nope", "x"); !errors.Is(err, ErrNoTable) {
		t.Errorf("unknown table = %v", err)
	}
	if err := db.CreateIndex("Flight", "nope"); !errors.Is(err, ErrNoColumn) {
		t.Errorf("unknown column = %v", err)
	}
	if err := db.CreateIndex("Flight", "Carrier"); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("Flight", "Carrier"); err == nil {
		t.Error("duplicate index must fail")
	}
	if got := db.Indexes(); len(got) != 1 || got[0] != [2]string{"Flight", "Carrier"} {
		t.Errorf("Indexes() = %v", got)
	}
}

func TestSelectIndexedEqualsScan(t *testing.T) {
	db := newFlightDB(t)
	if err := db.CreateIndex("Flight", "Carrier"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	queries := []Query{
		{Table: "Flight", Where: []Pred{{Column: "Carrier", Op: CmpEQ, Value: sem.Str("C0")}}},
		{Table: "Flight", Where: []Pred{
			{Column: "Carrier", Op: CmpEQ, Value: sem.Str("C1")},
			{Column: "FreeTickets", Op: CmpGE, Value: sem.Int(20)},
		}},
		{Table: "Flight", Where: []Pred{{Column: "Carrier", Op: CmpEQ, Value: sem.Str("zzz")}}},
		{Table: "Flight"}, // no usable predicate: falls back to scan
		{Table: "Flight", Where: []Pred{{Column: "FreeTickets", Op: CmpGT, Value: sem.Int(0)}}},
	}
	for _, q := range queries {
		tx := db.Begin()
		scan, err := tx.Select(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		indexed, err := tx.SelectIndexed(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		tx.Rollback()
		if !reflect.DeepEqual(scan, indexed) {
			t.Errorf("query %+v: scan %v != indexed %v", q, scan, indexed)
		}
	}
}

func TestIndexMaintainedAcrossWrites(t *testing.T) {
	db := newFlightDB(t)
	if err := db.CreateIndex("Flight", "Carrier"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := func(carrier string) Query {
		return Query{Table: "Flight", Where: []Pred{{Column: "Carrier", Op: CmpEQ, Value: sem.Str(carrier)}}}
	}
	count := func(carrier string) int {
		tx := db.Begin()
		defer tx.Rollback()
		rows, err := tx.SelectIndexed(ctx, q(carrier))
		if err != nil {
			t.Fatal(err)
		}
		return len(rows)
	}
	if count("C0") != 3 || count("C1") != 3 {
		t.Fatalf("initial counts: C0=%d C1=%d", count("C0"), count("C1"))
	}

	// Update moves a row between index entries.
	tx := db.Begin()
	if err := tx.Set(ctx, "Flight", "F0", "Carrier", sem.Str("C1")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if count("C0") != 2 || count("C1") != 4 {
		t.Fatalf("after update: C0=%d C1=%d", count("C0"), count("C1"))
	}

	// Delete removes the entry.
	tx = db.Begin()
	if err := tx.Delete(ctx, "Flight", "F1"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if count("C1") != 3 {
		t.Fatalf("after delete: C1=%d", count("C1"))
	}

	// Insert adds one; upsert replaces (old value unindexed).
	tx = db.Begin()
	if err := tx.Insert(ctx, "Flight", "F9", Row{"FreeTickets": sem.Int(1), "Carrier": sem.Str("C9")}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Upsert(ctx, "Flight", "F2", Row{"FreeTickets": sem.Int(1)}); err != nil {
		t.Fatal(err) // Carrier becomes null: leaves the index
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if count("C9") != 1 || count("C0") != 1 {
		t.Fatalf("after insert/upsert: C9=%d C0=%d", count("C9"), count("C0"))
	}

	// Rolled-back writes never touch the index.
	tx = db.Begin()
	if err := tx.Set(ctx, "Flight", "F3", "Carrier", sem.Str("C9")); err != nil {
		t.Fatal(err)
	}
	tx.Rollback()
	if count("C9") != 1 {
		t.Fatalf("rollback leaked into index: C9=%d", count("C9"))
	}
}

func TestSelectIndexedSeesOwnWrites(t *testing.T) {
	db := newFlightDB(t)
	if err := db.CreateIndex("Flight", "Carrier"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	tx := db.Begin()
	defer tx.Rollback()
	// Uncommitted insert and update must be visible through the index path.
	if err := tx.Insert(ctx, "Flight", "FN", Row{"FreeTickets": sem.Int(1), "Carrier": sem.Str("CX")}); err != nil {
		t.Fatal(err)
	}
	if err := tx.Set(ctx, "Flight", "F0", "Carrier", sem.Str("CX")); err != nil {
		t.Fatal(err)
	}
	rows, err := tx.SelectIndexed(ctx, Query{Table: "Flight",
		Where: []Pred{{Column: "Carrier", Op: CmpEQ, Value: sem.Str("CX")}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Key != "F0" || rows[1].Key != "FN" {
		t.Fatalf("rows = %+v", rows)
	}
	// And a row moved AWAY by this tx must not match through the stale
	// committed index entry.
	rows, err = tx.SelectIndexed(ctx, Query{Table: "Flight",
		Where: []Pred{{Column: "Carrier", Op: CmpEQ, Value: sem.Str("C0")}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, kr := range rows {
		if kr.Key == "F0" {
			t.Error("F0 moved to CX in this tx; index path returned stale match")
		}
	}
}

// TestSelectIndexedAfterCommitTakesNoLock: SelectIndexed on a finished
// transaction fails with ErrTxDone. It used to succeed and take a table S
// lock for the finished id that nothing released, so every later writer to
// the table blocked until its context ended.
func TestSelectIndexedAfterCommitTakesNoLock(t *testing.T) {
	db := newFlightDB(t)
	if err := db.CreateIndex("Flight", "Carrier"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	tx := db.Begin()
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	q := Query{Table: "Flight", Where: []Pred{{Column: "Carrier", Op: CmpEQ, Value: sem.Str("C0")}}}
	if _, err := tx.SelectIndexed(ctx, q); !errors.Is(err, ErrTxDone) {
		t.Errorf("SelectIndexed after Commit = %v, want ErrTxDone", err)
	}
	wctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	w := db.Begin()
	defer w.Rollback()
	if err := w.Set(wctx, "Flight", "F0", "FreeTickets", sem.Int(7)); err != nil {
		t.Fatalf("a writer after the finished transaction's SelectIndexed: %v", err)
	}
}

func TestIndexSurvivesRecoveryWhenCreatedBeforeReplay(t *testing.T) {
	// Index created before ReplayWAL is maintained during redo.
	_, buf := newLoggedFlightDB(t)

	fresh := Open(Options{})
	if err := fresh.CreateTable(testSchema()); err != nil {
		t.Fatal(err)
	}
	if err := fresh.CreateIndex("Flight", "Carrier"); err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.ReplayWAL(buf); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	tx := fresh.Begin()
	defer tx.Rollback()
	rows, err := tx.SelectIndexed(ctx, Query{Table: "Flight",
		Where: []Pred{{Column: "Carrier", Op: CmpEQ, Value: sem.Str("C0")}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("recovered index rows = %d, want 3", len(rows))
	}
}

func TestSQLUsesValidationNotIndex(t *testing.T) {
	// The SQL layer goes through Select (scan); indexes are an explicit API.
	// This just checks coexistence: SQL results agree with indexed results.
	db := newFlightDB(t)
	if err := db.CreateIndex("Flight", "Carrier"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	tx := db.Begin()
	defer tx.Rollback()
	sqlRes, err := tx.ExecSQL(ctx, "SELECT FreeTickets FROM Flight WHERE Carrier = 'C0'")
	if err != nil {
		t.Fatal(err)
	}
	idxRes, err := tx.SelectIndexed(ctx, Query{Table: "Flight",
		Where: []Pred{{Column: "Carrier", Op: CmpEQ, Value: sem.Str("C0")}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(sqlRes.Rows) != len(idxRes) {
		t.Errorf("SQL %d rows vs indexed %d", len(sqlRes.Rows), len(idxRes))
	}
}

// newLoggedFlightDB builds the standard flight table with a WAL buffer and
// returns the buffer positioned for replay.
func newLoggedFlightDB(t *testing.T) (*DB, *bytes.Reader) {
	t.Helper()
	var buf bytes.Buffer
	db := Open(Options{WAL: &buf})
	if err := db.CreateTable(testSchema()); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	tx := db.Begin()
	for i := 0; i < 6; i++ {
		row := Row{
			"FreeTickets": sem.Int(int64(i * 10)),
			"Price":       sem.Float(50 + float64(i)),
			"Carrier":     sem.Str(fmt.Sprintf("C%d", i%2)),
		}
		if err := tx.Insert(ctx, "Flight", fmt.Sprintf("F%d", i), row); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	return db, bytes.NewReader(buf.Bytes())
}
