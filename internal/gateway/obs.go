package gateway

import (
	"preserial/internal/obs"
)

// metrics is the gateway tier's gw_* metric family. Counters cover the
// session lifecycle (attach/park/expire), admission rejections by saturated
// resource, and dispatch volume/latency; gauges (registered in newMetrics
// against live server state) cover session population, parked bytes and lane
// backlog; the server's wire_* series count connections and frames.
// docs/OBSERVABILITY.md documents how to read them.
type metrics struct {
	attachNew      *obs.Counter
	attachResume   *obs.Counter
	parkDetach     *obs.Counter
	parkDisconnect *obs.Counter
	expired        *obs.Counter

	rejectQuota    *obs.Counter
	rejectTenant   *obs.Counter
	rejectLane     *obs.Counter
	rejectSessions *obs.Counter

	dispatches      *obs.Counter
	dispatchSeconds *obs.Histogram
}

// newMetrics registers the gw_* family on reg, wiring the gauges to s.
func newMetrics(reg *obs.Registry, s *Server) *metrics {
	m := &metrics{
		attachNew:      reg.Counter(obs.WithLabel(obs.NameGwAttaches, "kind", "new"), "Sessions created or resumed by gw.attach."),
		attachResume:   reg.Counter(obs.WithLabel(obs.NameGwAttaches, "kind", "resume"), "Sessions created or resumed by gw.attach."),
		parkDetach:     reg.Counter(obs.WithLabel(obs.NameGwParks, "cause", "detach"), "Sessions moved to the parked table."),
		parkDisconnect: reg.Counter(obs.WithLabel(obs.NameGwParks, "cause", "disconnect"), "Sessions moved to the parked table."),
		expired:        reg.Counter(obs.NameGwSessionsExpired, "Parked sessions reaped by the session-retention sweep."),

		rejectQuota:    reg.Counter(obs.WithLabel(obs.NameGwAdmissionRejects, "reason", "quota"), "Requests shed with retry-after, by saturated resource."),
		rejectTenant:   reg.Counter(obs.WithLabel(obs.NameGwAdmissionRejects, "reason", "tenant"), "Requests shed with retry-after, by saturated resource."),
		rejectLane:     reg.Counter(obs.WithLabel(obs.NameGwAdmissionRejects, "reason", "lane"), "Requests shed with retry-after, by saturated resource."),
		rejectSessions: reg.Counter(obs.WithLabel(obs.NameGwAdmissionRejects, "reason", "sessions"), "Requests shed with retry-after, by saturated resource."),

		dispatches:      reg.Counter(obs.NameGwDispatches, "Session requests run through dispatch lanes."),
		dispatchSeconds: reg.Histogram(obs.NameGwDispatchSeconds, "Session request latency, lane enqueue to response written.", nil),
	}
	reg.GaugeFunc(obs.NameGwSessionsActive, "Sessions currently bound to a connection.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.sessions) - s.parked)
	})
	reg.GaugeFunc(obs.NameGwSessionsParked, "Sessions in the parked table (no connection, no goroutine).", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.parked)
	})
	reg.GaugeFunc(obs.NameGwParkedBytes, "Estimated heap bytes held by parked sessions.", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(s.parkedBytes)
	})
	reg.GaugeFunc(obs.NameGwLaneDepth, "Requests queued across all dispatch lanes.", func() float64 {
		n := 0
		for _, l := range s.lanes {
			n += len(l.q)
		}
		return float64(n)
	})
	return m
}

// reject returns the rejection counter for an admission reason.
func (m *metrics) reject(reason string) *obs.Counter {
	switch reason {
	case "quota":
		return m.rejectQuota
	case "tenant":
		return m.rejectTenant
	case "lane":
		return m.rejectLane
	default:
		return m.rejectSessions
	}
}
