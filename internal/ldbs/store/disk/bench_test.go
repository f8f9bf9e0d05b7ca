package disk

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"preserial/internal/ldbs/store"
)

// BenchmarkDiskGetMiss reads random rows of a table over ten times its
// page cache, so most Gets miss and read, verify and decode a leaf page:
// decodePage's cost and allocations show here. The table is checkpointed
// first, so no Get waits on a dirty page.
func BenchmarkDiskGetMiss(b *testing.B) {
	const cachePages = 64
	d, err := Open(store.Config{Dir: b.TempDir(), CacheBytes: cachePages * DefaultPageSize})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	tb, err := d.CreateTable("t")
	if err != nil {
		b.Fatal(err)
	}
	// About 110 bytes a row, so the leaves fill some 1 000 pages.
	const rows = 40_000
	for i := 0; i < rows; i++ {
		if err := tb.Put(fmt.Sprintf("k%07d", i), intRow(i)); err != nil {
			b.Fatal(err)
		}
	}
	if err := d.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	before := d.Stats()
	b.ResetTimer()
	for range b.N {
		i := rng.IntN(rows)
		if _, ok, err := tb.Get(fmt.Sprintf("k%07d", i)); err != nil || !ok {
			b.Fatalf("Get row %d: ok=%v err=%v", i, ok, err)
		}
	}
	b.ReportMetric(float64(d.Stats().CacheMisses-before.CacheMisses)/float64(b.N), "misses/op")
	if s := d.Stats(); s.FilePages < 10*cachePages {
		b.Fatalf("the table spans %d pages, under ten times the %d-page cache", s.FilePages, cachePages)
	}
}
