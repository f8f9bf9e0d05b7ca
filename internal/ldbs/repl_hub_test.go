package ldbs

import (
	"bytes"
	"math/rand"
	"testing"
	"time"
)

// The linear rules the hub's binary searches replace: each walks every
// retained segment.

func scanNext(segs []replSeg, after uint64) ([]byte, uint64) {
	var out []byte
	end := after
	for _, s := range segs {
		if s.firstLSN <= after {
			continue
		}
		out = append(out, s.data...)
		end = s.lastLSN
	}
	return out, end
}

func scanAckedOff(segs []replSeg, ackedOff, lsn uint64) uint64 {
	for _, s := range segs {
		if s.lastLSN <= lsn && s.endOffset > ackedOff {
			ackedOff = s.endOffset
		}
	}
	return ackedOff
}

// scanLagSeg returns the oldest segment not covered by ackedLSN (nil: none).
func scanLagSeg(segs []replSeg, ackedLSN uint64) *replSeg {
	for i := range segs {
		if segs[i].lastLSN > ackedLSN {
			return &segs[i]
		}
	}
	return nil
}

// TestReplHubSeekMatchesScan drives hubs through random publishes (with
// the window trimming from the front), acks and reads, and checks every
// shipped byte, end LSN, acked offset and lag against the linear rules.
func TestReplHubSeekMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := &replCursor{}
	for round := 0; round < 50; round++ {
		h := newReplHub(200+rng.Intn(4000), false, time.Second)
		lsn := uint64(0)
		for step := 0; step < 400; step++ {
			switch rng.Intn(3) {
			case 0:
				data := make([]byte, 1+rng.Intn(300))
				rng.Read(data)
				first := lsn + 1
				lsn += uint64(1 + rng.Intn(4))
				h.publish(data, first, lsn)
				// An hour between segments, so lag names its segment.
				for i := range h.segs {
					h.segs[i].at = time.Now().Add(-time.Duration(lsn-h.segs[i].lastLSN+1) * time.Hour)
				}
			case 1:
				segs := append([]replSeg(nil), h.segs...)
				to := uint64(rng.Int63n(int64(lsn) + 2))
				want := scanAckedOff(segs, h.ackedOff, to)
				if to <= h.ackedLSN {
					want = h.ackedOff
				} else if to >= h.endLSN {
					want = h.pubBytes
				}
				h.ack(to)
				if h.ackedOff != want {
					t.Fatalf("round %d step %d: ack(%d) ackedOff %d, scan %d", round, step, to, h.ackedOff, want)
				}
			case 2:
				if len(h.segs) == 0 {
					continue
				}
				// A cursor sits on a segment boundary behind the newest.
				after := h.baseLSN
				if i := rng.Intn(len(h.segs)); i > 0 {
					after = h.segs[i-1].lastLSN
				}
				got, end, err := h.next(c, after)
				want, wantEnd := scanNext(h.segs, after)
				if err != nil || !bytes.Equal(got, want) || end != wantEnd {
					t.Fatalf("round %d step %d: next(%d) = %d bytes to %d (%v), scan %d bytes to %d",
						round, step, after, len(got), end, err, len(want), wantEnd)
				}
			}
			bytesLag, seconds := h.lag()
			wantBytes, wantHours := uint64(0), 0.0
			if h.ackedLSN < h.endLSN {
				wantBytes = h.pubBytes - h.ackedOff
				if s := scanLagSeg(h.segs, h.ackedLSN); s != nil {
					wantHours = time.Since(s.at).Hours()
				}
			}
			if bytesLag != wantBytes || int(seconds/3600+0.5) != int(wantHours+0.5) {
				t.Fatalf("round %d step %d: lag %d bytes %.0fh, scan %d bytes %.0fh",
					round, step, bytesLag, seconds/3600, wantBytes, wantHours)
			}
		}
	}
}
