package core

import (
	"errors"
	"testing"

	"preserial/internal/sem"
)

func TestStoreRefString(t *testing.T) {
	ref := StoreRef{Table: "Flight", Key: "AZ0", Column: "FreeTickets"}
	if got := ref.String(); got != "Flight/AZ0.FreeTickets" {
		t.Errorf("String() = %q", got)
	}
}

func TestMemStoreBasics(t *testing.T) {
	s := NewMemStore()
	ref := StoreRef{Table: "T", Key: "k", Column: "c"}
	// Absent refs load as null.
	v, err := s.Load(ref)
	if err != nil || !v.IsNull() {
		t.Errorf("Load absent = %s, %v", v, err)
	}
	s.Seed(ref, sem.Int(5))
	if err := s.ApplySST([]SSTWrite{{Ref: ref, Value: sem.Int(9)}}); err != nil {
		t.Fatal(err)
	}
	v, _ = s.Load(ref)
	if v.Int64() != 9 {
		t.Errorf("after SST = %s", v)
	}
	if s.Applied() != 1 {
		t.Errorf("Applied = %d", s.Applied())
	}
}

func TestMemStoreValidate(t *testing.T) {
	s := NewMemStore()
	ref := StoreRef{Table: "T", Key: "k", Column: "c"}
	boom := errors.New("rejected")
	s.Validate = func(StoreRef, sem.Value) error { return boom }
	if err := s.ApplySST([]SSTWrite{{Ref: ref, Value: sem.Int(1)}}); !errors.Is(err, boom) {
		t.Errorf("validate = %v", err)
	}
	// Rejected SSTs leave no partial writes.
	if v, _ := s.Load(ref); !v.IsNull() {
		t.Errorf("partial write leaked: %s", v)
	}
}

// TestMemStoreApplySSTBatch: a batch of two sets applies atomically and
// counts two applied sets.
func TestMemStoreApplySSTBatch(t *testing.T) {
	s := NewMemStore()
	sets := [][]SSTWrite{
		{{Ref: StoreRef{Table: "T", Key: "a"}, Value: sem.Int(1)}},
		{{Ref: StoreRef{Table: "T", Key: "b"}, Value: sem.Int(2)}},
	}
	if err := s.ApplySSTBatch(sets); err != nil {
		t.Fatal(err)
	}
	if s.Applied() != 2 {
		t.Fatalf("applied %d, want 2", s.Applied())
	}
	if v, _ := s.Load(StoreRef{Table: "T", Key: "b"}); !v.Equal(sem.Int(2)) {
		t.Fatalf("b = %v, want 2", v)
	}
}
