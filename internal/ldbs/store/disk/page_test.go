package disk

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand/v2"
	"slices"
	"testing"

	"preserial/internal/ldbs/store"
)

// randomNode builds a leaf, internal or overflow node that fits one page
// of pageSize bytes, drawn from rng.
func randomNode(rng *rand.Rand, pageSize int) *node {
	n := &node{pageNo: rng.Uint32(), typ: byte(1 + rng.IntN(3))}
	randBytes := func(max int) []byte {
		b := make([]byte, rng.IntN(max+1))
		for i := range b {
			b[i] = byte(rng.Uint32())
		}
		return b
	}
	randKey := func() string {
		if rng.IntN(8) == 0 {
			return string(randBytes(store.MaxKeyLen))
		}
		return string(randBytes(24))
	}
	if n.typ == pageOverflow {
		n.data = randBytes(pageSize - pageHdrSize)
		n.next = rng.Uint32()
		return n
	}
	if n.typ == pageInternal {
		n.children = []uint32{rng.Uint32()}
	}
	for cells := rng.IntN(64); cells > 0; cells-- {
		key := randKey()
		switch n.typ {
		case pageLeaf:
			var val []byte
			var ovf, ovfLen uint32
			if rng.IntN(4) == 0 {
				ovf, ovfLen = 1+rng.Uint32N(1<<31), rng.Uint32()
			} else {
				val = randBytes(inlineMax(pageSize))
			}
			if n.size()+leafCellSize(key, len(val), ovf != 0) > pageSize {
				return n
			}
			n.keys = append(n.keys, key)
			n.vals = append(n.vals, val)
			n.ovf = append(n.ovf, ovf)
			n.ovfLen = append(n.ovfLen, ovfLen)
		case pageInternal:
			if n.size()+2+1+len(key)+4 > pageSize {
				return n
			}
			n.keys = append(n.keys, key)
			n.children = append(n.children, rng.Uint32())
		}
	}
	return n
}

// sameNode reports how two decoded nodes differ, or "" if they do not.
// An empty inline value decodes as nil, so values compare by content.
func sameNode(a, b *node) string {
	switch {
	case a.pageNo != b.pageNo || a.typ != b.typ:
		return fmt.Sprintf("page %d type %d, want page %d type %d", b.pageNo, b.typ, a.pageNo, a.typ)
	case !slices.Equal(a.keys, b.keys):
		return fmt.Sprintf("keys %q, want %q", b.keys, a.keys)
	case !slices.EqualFunc(a.vals, b.vals, bytes.Equal):
		return "values differ"
	case !slices.Equal(a.ovf, b.ovf) || !slices.Equal(a.ovfLen, b.ovfLen):
		return fmt.Sprintf("overflow refs %v/%v, want %v/%v", b.ovf, b.ovfLen, a.ovf, a.ovfLen)
	case !slices.Equal(a.children, b.children):
		return fmt.Sprintf("children %v, want %v", b.children, a.children)
	case !bytes.Equal(a.data, b.data) || a.next != b.next:
		return fmt.Sprintf("overflow chunk of %d bytes → %d, want %d bytes → %d", len(b.data), b.next, len(a.data), a.next)
	}
	return ""
}

// FuzzPageCodec holds the page codec to two rules. A random leaf, internal
// or overflow node that fits a page survives encodePage → decodePage
// unchanged. Arbitrary bytes, their checksum fixed up so the parser is
// reached, either decode or fail with store.ErrCorrupt; they never panic.
func FuzzPageCodec(f *testing.F) {
	f.Add(uint64(1), []byte{})
	f.Add(uint64(2), make([]byte, pageHdrSize))
	for seed := uint64(3); seed < 9; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0))
		n := randomNode(rng, minPageSize)
		page, err := encodePage(n, minPageSize)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed, page)
		// The same page claiming far more cells, and a chunk past its end.
		big := slices.Clone(page)
		binary.BigEndian.PutUint16(big[6:8], 0xffff)
		f.Add(seed, big)
	}
	f.Fuzz(func(t *testing.T, seed uint64, raw []byte) {
		rng := rand.New(rand.NewPCG(seed, seed>>32))
		pageSize := minPageSize << rng.IntN(2)
		want := randomNode(rng, pageSize)
		page, err := encodePage(want, pageSize)
		if err != nil {
			t.Fatalf("encode of a node that fits: %v", err)
		}
		got, err := decodePage(want.pageNo, page)
		if err != nil {
			t.Fatalf("decode of an encoded page: %v", err)
		}
		if diff := sameNode(want, got); diff != "" {
			t.Fatalf("type %d node with %d cells: %s", want.typ, len(want.keys), diff)
		}

		if len(raw) >= 4 {
			binary.BigEndian.PutUint32(raw[0:4], crc32.ChecksumIEEE(raw[4:]))
		}
		if _, err := decodePage(1, raw); err != nil && !errors.Is(err, store.ErrCorrupt) {
			t.Fatalf("decode of %d arbitrary bytes: %v, want store.ErrCorrupt", len(raw), err)
		}
	})
}
