package disk

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"preserial/internal/ldbs/store"
)

// On-disk page layout. Every page is pageSize bytes:
//
//	[0:4)   crc32 (IEEE) of [4:pageSize)
//	[4]     page type (pageLeaf | pageInternal | pageOverflow)
//	[5]     reserved (0)
//	[6:8)   n — cell count (leaf/internal) or chunk length (overflow)
//	[8:12)  aux — leftmost child (internal), next page (overflow), 0 (leaf)
//	[12:)   slot directory (n × u16 cell offsets), cells packed from the
//	        end of the page downward (overflow pages: raw chunk bytes)
//
// Cell bodies:
//
//	leaf:     [1 klen][key][1 flag] then flag==0: [4 vlen][value bytes]
//	                              or flag==1: [4 overflow head][4 total len]
//	internal: [1 klen][key][4 right child]   (n separators, aux + cells
//	          give the n+1 children; child i holds keys < separator i)
//
// A page number is a u32 index of a pageSize-aligned offset; pages 0 and
// 1 are the superblock slots, data pages start at 2, and page number 0
// doubles as "nil" in child/overflow pointers.
const (
	// DefaultPageSize is used when Config.PageSize is 0.
	DefaultPageSize = 4096
	minPageSize     = 2048
	maxPageSize     = 1 << 16 // n and slot offsets are u16
	pageHdrSize     = 12

	pageLeaf     = 1
	pageInternal = 2
	pageOverflow = 3
)

// inlineMax returns the largest value stored inline in a leaf cell; longer
// values move to an overflow chain. At pageSize/4 (+ key ≤ MaxKeyLen) any
// two cells fit in a page, so leaf splits always make progress.
func inlineMax(pageSize int) int { return pageSize / 4 }

// node is the decoded in-memory form of one page. Exactly one of the
// three shapes is populated, per typ.
type node struct {
	pageNo uint32
	typ    byte
	dirty  bool
	ref    bool // clock reference bit

	// pageLeaf: parallel slices sorted by key. vals[i] holds the encoded
	// row when ovf[i] == 0; otherwise the value lives in the overflow
	// chain starting at ovf[i] with total length ovfLen[i].
	keys   []string
	vals   [][]byte
	ovf    []uint32
	ovfLen []uint32

	// pageInternal: keys are separators, children has len(keys)+1 pages.
	children []uint32

	// pageOverflow: one chunk plus the next page in the chain (0 = end).
	data []byte
	next uint32
}

// leafCellSize is the on-page footprint of leaf cell i including its slot.
func leafCellSize(key string, inlineLen int, overflow bool) int {
	if overflow {
		return 2 + 1 + len(key) + 1 + 8
	}
	return 2 + 1 + len(key) + 1 + 4 + inlineLen
}

// size returns the encoded footprint of the node, used to decide splits.
func (n *node) size() int {
	total := pageHdrSize
	switch n.typ {
	case pageLeaf:
		for i, k := range n.keys {
			total += leafCellSize(k, len(n.vals[i]), n.ovf[i] != 0)
		}
	case pageInternal:
		for _, k := range n.keys {
			total += 2 + 1 + len(k) + 4
		}
	case pageOverflow:
		total += len(n.data)
	}
	return total
}

// encodePage serializes n into a fresh pageSize buffer with checksum.
func encodePage(n *node, pageSize int) ([]byte, error) {
	buf := make([]byte, pageSize)
	buf[4] = n.typ
	switch n.typ {
	case pageLeaf, pageInternal:
		count := len(n.keys)
		binary.BigEndian.PutUint16(buf[6:8], uint16(count))
		if n.typ == pageInternal {
			binary.BigEndian.PutUint32(buf[8:12], n.children[0])
		}
		slotAt := pageHdrSize
		cellEnd := pageSize
		for i := 0; i < count; i++ {
			var cell []byte
			if n.typ == pageLeaf {
				cell = append(cell, byte(len(n.keys[i])))
				cell = append(cell, n.keys[i]...)
				if n.ovf[i] != 0 {
					cell = append(cell, 1)
					var x [8]byte
					binary.BigEndian.PutUint32(x[:4], n.ovf[i])
					binary.BigEndian.PutUint32(x[4:], n.ovfLen[i])
					cell = append(cell, x[:]...)
				} else {
					cell = append(cell, 0)
					var x [4]byte
					binary.BigEndian.PutUint32(x[:], uint32(len(n.vals[i])))
					cell = append(cell, x[:]...)
					cell = append(cell, n.vals[i]...)
				}
			} else {
				cell = append(cell, byte(len(n.keys[i])))
				cell = append(cell, n.keys[i]...)
				var x [4]byte
				binary.BigEndian.PutUint32(x[:], n.children[i+1])
				cell = append(cell, x[:]...)
			}
			cellEnd -= len(cell)
			if cellEnd < slotAt+2 {
				return nil, fmt.Errorf("disk: page %d overflow encoding %d cells", n.pageNo, count)
			}
			copy(buf[cellEnd:], cell)
			binary.BigEndian.PutUint16(buf[slotAt:], uint16(cellEnd))
			slotAt += 2
		}
	case pageOverflow:
		if len(n.data) > pageSize-pageHdrSize {
			return nil, fmt.Errorf("disk: overflow chunk %d too large", len(n.data))
		}
		binary.BigEndian.PutUint16(buf[6:8], uint16(len(n.data)))
		binary.BigEndian.PutUint32(buf[8:12], n.next)
		copy(buf[pageHdrSize:], n.data)
	default:
		return nil, fmt.Errorf("disk: encode of unknown page type %d", n.typ)
	}
	binary.BigEndian.PutUint32(buf[0:4], crc32.ChecksumIEEE(buf[4:]))
	return buf, nil
}

// decodePage parses a raw page read from disk, verifying the checksum.
func decodePage(pageNo uint32, buf []byte) (*node, error) {
	if len(buf) < pageHdrSize {
		return nil, fmt.Errorf("%w: page %d short (%d bytes)", store.ErrCorrupt, pageNo, len(buf))
	}
	if got, want := crc32.ChecksumIEEE(buf[4:]), binary.BigEndian.Uint32(buf[0:4]); got != want {
		return nil, fmt.Errorf("%w: page %d checksum mismatch", store.ErrCorrupt, pageNo)
	}
	n := &node{pageNo: pageNo, typ: buf[4]}
	count := int(binary.BigEndian.Uint16(buf[6:8]))
	aux := binary.BigEndian.Uint32(buf[8:12])
	if n.typ != pageOverflow && pageHdrSize+2*count > len(buf) {
		return nil, fmt.Errorf("%w: page %d slot directory of %d cells exceeds page", store.ErrCorrupt, pageNo, count)
	}
	cell := func(i int) ([]byte, error) {
		off := int(binary.BigEndian.Uint16(buf[pageHdrSize+2*i:]))
		if off < pageHdrSize+2*count || off >= len(buf) {
			return nil, fmt.Errorf("%w: page %d slot %d offset %d out of range", store.ErrCorrupt, pageNo, i, off)
		}
		return buf[off:], nil
	}
	switch n.typ {
	case pageLeaf:
		n.keys = make([]string, count)
		n.vals = make([][]byte, count)
		n.ovf = make([]uint32, count)
		n.ovfLen = make([]uint32, count)
		for i := 0; i < count; i++ {
			b, err := cell(i)
			if err != nil {
				return nil, err
			}
			klen := int(b[0])
			if len(b) < 1+klen+1 {
				return nil, fmt.Errorf("%w: page %d cell %d truncated key", store.ErrCorrupt, pageNo, i)
			}
			n.keys[i] = string(b[1 : 1+klen])
			flag := b[1+klen]
			b = b[1+klen+1:]
			if flag == 1 {
				if len(b) < 8 {
					return nil, fmt.Errorf("%w: page %d cell %d truncated overflow ref", store.ErrCorrupt, pageNo, i)
				}
				n.ovf[i] = binary.BigEndian.Uint32(b)
				n.ovfLen[i] = binary.BigEndian.Uint32(b[4:])
			} else {
				if len(b) < 4 {
					return nil, fmt.Errorf("%w: page %d cell %d truncated value header", store.ErrCorrupt, pageNo, i)
				}
				vlen := int(binary.BigEndian.Uint32(b))
				b = b[4:]
				if len(b) < vlen {
					return nil, fmt.Errorf("%w: page %d cell %d truncated value", store.ErrCorrupt, pageNo, i)
				}
				n.vals[i] = append([]byte(nil), b[:vlen]...)
			}
		}
	case pageInternal:
		n.keys = make([]string, count)
		n.children = make([]uint32, count+1)
		n.children[0] = aux
		for i := 0; i < count; i++ {
			b, err := cell(i)
			if err != nil {
				return nil, err
			}
			klen := int(b[0])
			if len(b) < 1+klen+4 {
				return nil, fmt.Errorf("%w: page %d cell %d truncated separator", store.ErrCorrupt, pageNo, i)
			}
			n.keys[i] = string(b[1 : 1+klen])
			n.children[i+1] = binary.BigEndian.Uint32(b[1+klen:])
		}
	case pageOverflow:
		if count > len(buf)-pageHdrSize {
			return nil, fmt.Errorf("%w: page %d overflow chunk %d exceeds page", store.ErrCorrupt, pageNo, count)
		}
		n.data = append([]byte(nil), buf[pageHdrSize:pageHdrSize+count]...)
		n.next = aux
	default:
		return nil, fmt.Errorf("%w: page %d unknown type %d", store.ErrCorrupt, pageNo, n.typ)
	}
	return n, nil
}
