package core

import (
	"hash/maphash"
	"sync/atomic"
)

// objIndex is the object registry: an insert-only open-addressing hash
// table from ObjectID to *object. Objects are registered under the monitor
// and never removed, which is what makes a table this plain sufficient:
// the single writer publishes each slot (and each grown table) with an
// atomic store, so the snapshot read path looks objects up without any
// lock, and the monitor path shares the same table instead of keeping a
// second map — one pointer-sized slot or two per object, where a Go map
// plus a sync.Map cost some 180 B.
type objIndex struct {
	seed  maphash.Seed
	table atomic.Pointer[[]atomic.Pointer[object]] // length is a power of two
	all   []*object                                // in registration order; monitor only
}

func newObjIndex() objIndex { return objIndex{seed: maphash.MakeSeed()} }

// get returns the object registered under id, nil when there is none. Safe
// without the monitor.
func (ix *objIndex) get(id ObjectID) *object {
	tp := ix.table.Load()
	if tp == nil {
		return nil
	}
	slots := *tp
	mask := uint64(len(slots) - 1)
	for i := maphash.String(ix.seed, string(id)) & mask; ; i = (i + 1) & mask {
		if o := slots[i].Load(); o == nil || o.id == id {
			return o
		}
	}
}

// put registers o, whose id must not be registered yet. Caller holds the
// monitor. The table is kept at most three-quarters full.
func (ix *objIndex) put(o *object) {
	tp := ix.table.Load()
	if tp == nil || 4*(len(ix.all)+1) > 3*len(*tp) {
		size := 16
		if tp != nil {
			size = 2 * len(*tp)
		}
		grown := make([]atomic.Pointer[object], size)
		for _, old := range ix.all {
			ix.place(grown, old)
		}
		tp = &grown
		ix.table.Store(tp)
	}
	ix.place(*tp, o)
	ix.all = append(ix.all, o)
}

// place stores o in the first free slot of its probe sequence.
func (ix *objIndex) place(slots []atomic.Pointer[object], o *object) {
	mask := uint64(len(slots) - 1)
	i := maphash.String(ix.seed, string(o.id)) & mask
	for slots[i].Load() != nil {
		i = (i + 1) & mask
	}
	slots[i].Store(o)
}
