package gateway

import "preserial/internal/wire"

// Per-session footprint model for the gw_parked_session_bytes gauge,
// calibrated against the Go heap by TestParkedSessionHeap: a parked
// session that owns nothing (idle, or its transactions finished) costs its
// struct, its Owner, its id and its sessions-map slot, about 165 bytes in
// all; each transaction it owns while parked (asleep in the GTM) adds a
// one-entry owned set. The sleeping transaction's own state in the
// engine and the GTM, some 1.5 KB, is left out. The numbers are
// deliberately round — the gauge answers "what does a million parked
// clients cost" capacity questions, not heap-profiler ones.
const (
	sessionBaseBytes = 150 // session struct + Owner + sessions-map slot
	ownedEntryBytes  = 240 // owned-set map: header and the slot group
)

// session is one logical client in the gateway's session table.
//
// A bound session (conn != nil) belongs to exactly one gwConn; its requests
// ride dispatch lanes and its responses go back on that conn. A parked
// session (conn == nil) is the whole point of the tier: no connection, no
// goroutine, no buffers — just this struct. Its live transactions sleep in
// the GTM (the paper's disconnection semantics) and the persistent Owner
// remembers what to hand back on resume. An idle mobile client therefore
// costs O(bytes), and a gateway can hold a million of them.
type session struct {
	id     string
	tenant string
	// owner is the engine-side identity of this session. It persists across
	// binds, which is what makes reconnect exactly-once-transparent: the
	// engine's dedup windows and ownership registry see the same owner
	// before and after a park.
	owner *wire.Owner

	// Bind state, guarded by the server's table lock. Park vs re-attach
	// races resolve by conn identity: park only proceeds while the session
	// is still bound to the connection asking to park it.
	conn     *gwConn
	lastSeen int64 // Unix ns of the last attach/detach/park; drives parked reaping

	// chargedBytes is the footprint added to the server's parked-bytes
	// gauge when this session parked, and the exact amount credited back
	// on resume or reap. Recomputing the footprint at credit time is wrong:
	// the owned set can shrink while parked (queued requests finishing,
	// engine sweeps), which would leak the difference into the gauge.
	chargedBytes int64
}

// footprint estimates the heap bytes this session costs while parked.
func (s *session) footprint() int64 {
	n := int64(sessionBaseBytes) + int64(len(s.id)+len(s.tenant))
	for _, tx := range s.owner.Owned() {
		n += ownedEntryBytes + int64(len(tx))
	}
	return n
}
