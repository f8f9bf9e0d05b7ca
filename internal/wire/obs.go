package wire

import (
	"time"

	"preserial/internal/obs"
)

// serverMetrics is the middleware layer's live metric set: connection and
// frame counts, per-op request counters, and one request-latency histogram.
// Built when the server is given an obs.Registry (ServerOptions.Obs).
type serverMetrics struct {
	connsOpen *obs.Counter
	framesIn  *obs.Counter
	framesOut *obs.Counter
	errors    *obs.Counter
	latency   *obs.Histogram
	reqs      map[Op]*obs.Counter
	reqOther  *obs.Counter
}

// allOps enumerates the protocol vocabulary for per-op counter registration.
var allOps = []Op{
	OpBegin, OpAttach, OpInvoke, OpRead, OpApply, OpCommit, OpAbort,
	OpSleep, OpAwake, OpState, OpObjects, OpStats, OpInfo, OpTxs, OpPing,
	OpPrepare, OpDecide, OpReplay, OpShards, OpGwAttach, OpGwDetach,
}

// newServerMetrics registers the wire_* metric set. activeConns reports the
// current connection count for the gauge (called at exposition time).
func newServerMetrics(reg *obs.Registry, activeConns func() float64) *serverMetrics {
	m := &serverMetrics{
		connsOpen: reg.Counter(obs.NameWireConnections, "TCP connections accepted."),
		framesIn:  reg.Counter(obs.NameWireFramesIn, "Request frames read."),
		framesOut: reg.Counter(obs.NameWireFramesOut, "Response frames written."),
		errors:    reg.Counter(obs.NameWireRequestErrors, "Requests answered with ok:false."),
		latency:   reg.Histogram(obs.NameWireRequestSeconds, "Request handling latency (including blocking waits).", nil),
		reqs:      make(map[Op]*obs.Counter, len(allOps)),
		reqOther:  reg.Counter(obs.WithLabel(obs.NameWireRequests, "op", "unknown"), "Requests by protocol op."),
	}
	for _, op := range allOps {
		m.reqs[op] = reg.Counter(obs.WithLabel(obs.NameWireRequests, "op", string(op)), "Requests by protocol op.")
	}
	reg.GaugeFunc(obs.NameWireConnectionsActive, "Currently open TCP connections.", activeConns)
	return m
}

// countOp increments the per-op request counter. Called before dispatch so
// a stats request's snapshot includes itself.
func (m *serverMetrics) countOp(op Op) {
	c := m.reqs[op]
	if c == nil {
		c = m.reqOther
	}
	c.Inc()
}

// observe records the outcome of one dispatched request.
func (m *serverMetrics) observe(start time.Time, ok bool) {
	m.latency.Observe(time.Since(start))
	if !ok {
		m.errors.Inc()
	}
}
