package ldbs

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"preserial/internal/sem"
)

// The write-set differential: a transaction's reads of its own buffered
// writes (GetRow, Scan, SelectIndexed, and the existence checks of Insert,
// Set and Delete) must agree with a plain map that applies every write at
// once, whether the write set is small enough to be scanned or large
// enough to be indexed by row.

// wsTables are the fuzzed tables: "A" has an index on s (SelectIndexed
// takes the index path), "B" has none (it falls back to a scan).
var wsTables = [2]string{"A", "B"}

func wsSchema(table string) Schema {
	return Schema{
		Table: table,
		Columns: []ColumnDef{
			{Name: "n", Kind: sem.KindInt64},
			{Name: "s", Kind: sem.KindString},
		},
		Checks: []Check{{Column: "n", Op: CmpGE, Bound: sem.Int(0)}},
	}
}

// Write-set operations, one per decoded op byte.
const (
	wsInsert = iota
	wsUpsert
	wsSet
	wsDelete
	wsGetRow
	wsScan
	wsSelectIndexed
	wsCommit
	wsRollback
	wsOps
)

// wsOp encodes one operation: op, then table (bit 0) and key (bits 1-2),
// then the value byte.
func wsOp(op, table, key, val byte) []byte { return []byte{op, table | key<<1, val} }

// wsInt and wsStr decode a value byte; wsInt(0) is -1, which the CHECK
// constraint n >= 0 rejects.
func wsInt(val byte) sem.Value { return sem.Int(int64(val%8) - 1) }
func wsStr(val byte) sem.Value { return sem.Str(fmt.Sprintf("s%d", val%3)) }

// wsErrClass reduces an error to the class the model predicts.
func wsErrClass(err error) string {
	for _, e := range []error{ErrNoRow, ErrRowExists, ErrConstraint} {
		if errors.Is(err, e) {
			return e.Error()
		}
	}
	if err != nil {
		return "other: " + err.Error()
	}
	return "ok"
}

// wsModel is the reference: committed rows, and the view of the open
// transaction (committed plus its writes). Rows are never mutated in place.
type wsModel struct {
	committed, view map[string]map[string]Row
}

func wsCopy(m map[string]map[string]Row) map[string]map[string]Row {
	out := make(map[string]map[string]Row, len(m))
	for t, rows := range m {
		out[t] = make(map[string]Row, len(rows))
		for k, r := range rows {
			out[t][k] = r
		}
	}
	return out
}

// rows returns table's rows in key order, keeping those match accepts.
func (m *wsModel) rows(table string, match func(Row) bool) []KeyRow {
	var out []KeyRow
	for k, r := range m.view[table] {
		if match(r) {
			out = append(out, KeyRow{Key: k, Row: r})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// scanAll reads every row of table through tx.
func scanAll(ctx context.Context, tx *Tx, table string) ([]KeyRow, error) {
	var out []KeyRow
	err := tx.Scan(ctx, table, func(k string, r Row) bool {
		out = append(out, KeyRow{Key: k, Row: r})
		return true
	})
	return out, err
}

func runWriteSet(t *testing.T, data []byte) {
	ctx := context.Background()
	db := Open(Options{})
	for _, table := range wsTables {
		if err := db.CreateTable(wsSchema(table)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CreateIndex("A", "s"); err != nil {
		t.Fatal(err)
	}
	m := &wsModel{committed: map[string]map[string]Row{"A": {}, "B": {}}}
	m.view = wsCopy(m.committed)
	tx := db.Begin()
	defer func() { tx.Rollback() }()

	checkCommitted := func(step int) {
		t.Helper()
		r := db.Begin()
		defer r.Rollback()
		for _, table := range wsTables {
			got, err := scanAll(ctx, r, table)
			if err != nil {
				t.Fatalf("op %d: committed scan of %s: %v", step, table, err)
			}
			want := (&wsModel{view: m.committed}).rows(table, func(Row) bool { return true })
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("op %d: committed %s = %v, model %v", step, table, got, want)
			}
		}
	}

	for step := 0; step < 64 && len(data) >= 3; step, data = step+1, data[3:] {
		op, table, key, val := data[0]%wsOps, wsTables[data[1]&1], fmt.Sprintf("k%d", data[1]>>1&3), data[2]
		cur, exists := m.view[table][key]
		row := Row{"n": wsInt(val), "s": wsStr(val)}
		var (
			got, want         error
			gotRows, wantRows []KeyRow
		)
		// put records a successful write in the model.
		put := func(r Row) { m.view[table][key] = r }
		switch op {
		case wsInsert:
			got = tx.Insert(ctx, table, key, row)
			switch {
			case row["n"].Int64() < 0:
				want = ErrConstraint
			case exists:
				want = ErrRowExists
			default:
				put(row)
			}
		case wsUpsert:
			got = tx.Upsert(ctx, table, key, row)
			if row["n"].Int64() < 0 {
				want = ErrConstraint
			} else {
				put(row)
			}
		case wsSet:
			col, v := "n", wsInt(val)
			if val >= 128 {
				col, v = "s", wsStr(val)
			}
			got = tx.Set(ctx, table, key, col, v)
			switch {
			case col == "n" && v.Int64() < 0:
				want = ErrConstraint
			case !exists:
				want = ErrNoRow
			default:
				next := cur.clone()
				next[col] = v
				put(next)
			}
		case wsDelete:
			got = tx.Delete(ctx, table, key)
			if exists {
				delete(m.view[table], key)
			} else {
				want = ErrNoRow
			}
		case wsGetRow:
			var r Row
			r, got = tx.GetRow(ctx, table, key)
			if !exists {
				want = ErrNoRow
			} else if !reflect.DeepEqual(r, cur) {
				t.Fatalf("op %d: GetRow %s/%s = %v, model %v", step, table, key, r, cur)
			}
		case wsScan:
			gotRows, got = scanAll(ctx, tx, table)
			wantRows = m.rows(table, func(Row) bool { return true })
		case wsSelectIndexed:
			v := wsStr(val)
			gotRows, got = tx.SelectIndexed(ctx, Query{Table: table, Where: []Pred{{Column: "s", Op: CmpEQ, Value: v}}})
			wantRows = m.rows(table, func(r Row) bool { return r["s"] == v })
		case wsCommit:
			got = tx.Commit(ctx)
			m.committed = wsCopy(m.view)
			tx = db.Begin()
		case wsRollback:
			tx.Rollback()
			m.view = wsCopy(m.committed)
			tx = db.Begin()
		}
		if g, w := wsErrClass(got), wsErrClass(want); g != w {
			t.Fatalf("op %d (%d on %s/%s, value %d): error %q, model %q", step, op, table, key, val, g, w)
		}
		if !reflect.DeepEqual(gotRows, wantRows) {
			t.Fatalf("op %d (%d on %s): rows %v, model %v", step, op, table, gotRows, wantRows)
		}
		if op == wsCommit || op == wsRollback {
			checkCommitted(step)
		}
	}
}

// FuzzTxWriteSet runs decoded operations against a DB and against a map
// model; every result, error class and committed row must agree.
func FuzzTxWriteSet(f *testing.F) {
	seq := func(ops ...[]byte) []byte {
		var out []byte
		for _, op := range ops {
			out = append(out, op...)
		}
		return out
	}
	// insert → delete → insert
	f.Add(seq(wsOp(wsInsert, 0, 1, 3), wsOp(wsDelete, 0, 1, 0), wsOp(wsInsert, 0, 1, 5),
		wsOp(wsGetRow, 0, 1, 0), wsOp(wsCommit, 0, 0, 0)))
	// set after delete fails with ErrNoRow
	f.Add(seq(wsOp(wsInsert, 1, 0, 2), wsOp(wsCommit, 0, 0, 0), wsOp(wsDelete, 1, 0, 0),
		wsOp(wsSet, 1, 0, 4), wsOp(wsSet, 1, 0, 200), wsOp(wsGetRow, 1, 0, 0), wsOp(wsCommit, 0, 0, 0)))
	// upsert over a delete
	f.Add(seq(wsOp(wsInsert, 0, 2, 1), wsOp(wsDelete, 0, 2, 0), wsOp(wsUpsert, 0, 2, 6),
		wsOp(wsSelectIndexed, 0, 0, 6), wsOp(wsRollback, 0, 0, 0), wsOp(wsGetRow, 0, 2, 0)))
	// a scan sees its own inserts in key order
	f.Add(seq(wsOp(wsInsert, 0, 3, 1), wsOp(wsInsert, 0, 1, 2), wsOp(wsCommit, 0, 0, 0),
		wsOp(wsInsert, 0, 2, 3), wsOp(wsInsert, 0, 0, 4), wsOp(wsScan, 0, 0, 0),
		wsOp(wsSelectIndexed, 0, 0, 1), wsOp(wsCommit, 0, 0, 0)))
	// 48 writes, past txIndexMin: every row written several times,
	// then reads, a delete and a re-insert on the indexed write set
	var long []byte
	for i := 0; i < 24; i++ {
		long = append(long, wsOp(wsUpsert, byte(i/4&1), byte(i%4), byte(i%7+1))...)
		long = append(long, wsOp(wsSet, byte(i/4&1), byte(i%4), byte(128+i))...)
	}
	f.Add(seq(long, wsOp(wsGetRow, 0, 1, 0), wsOp(wsScan, 1, 0, 0), wsOp(wsDelete, 0, 2, 0),
		wsOp(wsSet, 0, 2, 3), wsOp(wsInsert, 0, 2, 4), wsOp(wsScan, 0, 0, 0),
		wsOp(wsSelectIndexed, 0, 0, 2), wsOp(wsSelectIndexed, 1, 0, 1), wsOp(wsCommit, 0, 0, 0)))
	f.Fuzz(runWriteSet)
}
