package shard

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"preserial/internal/ldbs"
	"preserial/internal/obs"
)

// Shard roles as reported in topology.
const (
	RolePrimary  = "primary"
	RoleFollower = "follower"
	// RolePromoted is a primary that used to be the follower: the pair went
	// through a failover and currently runs without a replica of its own.
	RolePromoted = "promoted"
)

// ReplicaInfo is the replication-side view of one shard, surfaced through
// the cluster topology (gtmcli cluster) and the repl_* gauges.
type ReplicaInfo struct {
	Role       string
	Epoch      uint64
	LSN        uint64
	AckedLSN   uint64
	LagBytes   uint64
	LagSeconds float64
	Followers  int
	Degraded   bool
	Promotions uint64
}

// ReplicaInfoProvider is implemented by shards that know their replication
// state; the cluster fills topology entries from it when present.
type ReplicaInfoProvider interface {
	ReplicaInfo() (ReplicaInfo, bool)
}

// promoter is implemented by shards the failure detector can fail over.
type promoter interface {
	Promote() error
}

// ReplicaConfig describes a primary/follower shard pair.
type ReplicaConfig struct {
	// Local configures the primary stack. Dir is required — replication
	// ships the primary's WAL, so there must be one.
	Local LocalConfig
	// FollowerDir is the follower LDBS's persistence directory; must differ
	// from Local.Dir.
	FollowerDir string
	// AsyncRepl turns off semi-synchronous commits. The default (semi-sync)
	// holds each commit until the follower acknowledged its frames, so a
	// promoted follower is guaranteed to hold every acknowledged commit —
	// including sleep-journal rows and 2PC decision markers.
	AsyncRepl bool
	// AckTimeout bounds the semi-sync wait before the stream degrades to
	// async (zero: the ldbs default).
	AckTimeout time.Duration
	// Logf receives replication, promotion, sleep-journal and sleeper
	// adoption events; nil silences them.
	Logf func(format string, args ...any)
}

// ReplicaShard is a LocalShard whose WAL ships to a follower LDBS. The
// embedded LocalShard serves transactions and owns sessions, the sleep
// journal and restarts; the pair adds only the replication source, the
// follower and promotion. Kill crashes the primary (the follower keeps its
// replicated state); Promote fences the dead primary behind a new
// replication epoch and reopens the embedded shard over the follower's
// directory at its acked LSN, reconstructing the primary's sleeping
// transactions from the replicated sleep journal.
type ReplicaShard struct {
	*LocalShard
	rcfg ReplicaConfig

	promotions  atomic.Uint64
	promCounter *obs.Counter // nil without observability

	// replMu guards the replication side; lifecycle transitions take it
	// under LocalShard.lifeMu.
	replMu   sync.Mutex
	src      *ldbs.ReplSource
	follower *ldbs.Replica // nil once promoted
	promoted bool
	epoch    uint64
	stopRepl chan struct{}
	replDone chan struct{}
}

// OpenReplicaShard builds the pair and starts shipping the primary's WAL.
func OpenReplicaShard(cfg ReplicaConfig) (*ReplicaShard, error) {
	if cfg.Local.Dir == "" {
		return nil, errors.New("shard: replica pair needs a primary persistence dir")
	}
	if cfg.FollowerDir == "" || cfg.FollowerDir == cfg.Local.Dir {
		return nil, errors.New("shard: replica pair needs a distinct follower dir")
	}
	epoch, err := ldbs.ReadReplEpoch(cfg.Local.Dir)
	if err != nil {
		return nil, fmt.Errorf("shard %d: %w", cfg.Local.Index, err)
	}
	if epoch == 0 {
		epoch = 1
		if err := ldbs.WriteReplEpoch(cfg.Local.Dir, epoch); err != nil {
			return nil, fmt.Errorf("shard %d: %w", cfg.Local.Index, err)
		}
	}

	ls, err := OpenLocal(cfg.Local)
	if err != nil {
		return nil, err
	}
	if cfg.Logf != nil {
		ls.logf = cfg.Logf
	}
	s := &ReplicaShard{LocalShard: ls, rcfg: cfg}
	if err := s.openSource(epoch); err != nil {
		ls.Close()
		return nil, err
	}
	s.follower, err = ldbs.OpenReplica(ldbs.ReplicaOptions{
		Dir:            cfg.FollowerDir,
		Schemas:        HiddenSchemas(cfg.Local.Schemas),
		Store:          cfg.Local.Store,
		PageCacheBytes: cfg.Local.PageCacheBytes,
		Logf:           ls.logf,
	})
	if err != nil {
		s.src.Close()
		ls.Close()
		return nil, fmt.Errorf("shard %d: follower: %w", cfg.Local.Index, err)
	}
	s.startRepl()
	s.registerMetrics()
	return s, nil
}

// openSource starts serving the embedded shard's WAL under epoch.
func (s *ReplicaShard) openSource(epoch uint64) error {
	src, err := ldbs.NewReplSource(s.DB(), ldbs.ReplSourceOptions{
		Epoch:      epoch,
		SemiSync:   !s.rcfg.AsyncRepl,
		AckTimeout: s.rcfg.AckTimeout,
		Obs:        s.rcfg.Local.Obs,
	})
	if err != nil {
		return fmt.Errorf("shard %d: %w", s.Index(), err)
	}
	s.replMu.Lock()
	s.src, s.epoch = src, epoch
	s.replMu.Unlock()
	return nil
}

// closeSource stops serving the replication stream.
func (s *ReplicaShard) closeSource() {
	s.replMu.Lock()
	src := s.src
	s.src = nil
	s.replMu.Unlock()
	if src != nil {
		src.Close()
	}
}

// startRepl starts the follower's redial loop. Callers hold no locks
// (construction); the fields it touches are not yet shared.
func (s *ReplicaShard) startRepl() {
	stop := make(chan struct{})
	done := make(chan struct{})
	s.stopRepl, s.replDone = stop, done
	fol := s.follower
	go func() {
		defer close(done)
		fol.Run(s.dialRepl, stop)
	}()
}

// stopFollower stops the follower's apply loop and takes the follower out
// of the pair.
func (s *ReplicaShard) stopFollower() *ldbs.Replica {
	s.replMu.Lock()
	fol, stop, done := s.follower, s.stopRepl, s.replDone
	s.follower, s.stopRepl, s.replDone = nil, nil, nil
	s.replMu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	return fol
}

// dialRepl connects the follower to whatever source currently serves; the
// pair lives in one process, so the "wire" is a net.Pipe.
func (s *ReplicaShard) dialRepl() (io.ReadWriteCloser, error) {
	s.replMu.Lock()
	src := s.src
	s.replMu.Unlock()
	if src == nil {
		return nil, fmt.Errorf("%w (shard %d): primary not serving", ErrShardDown, s.Index())
	}
	c1, c2 := net.Pipe()
	//lint:ignore gtmlint/goroleak Serve exits when either pipe end closes: the follower closes c2 on teardown and src.Close severs c1, so the pump's lifetime is bounded by the connection it carries
	go func() { _ = src.Serve(c1) }()
	return c2, nil
}

// registerMetrics registers the per-shard replication gauges once, owned by
// this pair for its whole life (sources come and go across restarts).
func (s *ReplicaShard) registerMetrics() {
	reg := s.rcfg.Local.Obs
	if reg == nil {
		return
	}
	lbl := strconv.Itoa(s.Index())
	s.promCounter = reg.Counter(obs.WithLabel(obs.NameShardPromotions, "shard", lbl),
		"Follower promotions per shard.")
	reg.GaugeFunc(obs.WithLabel(obs.NameReplLagBytes, "shard", lbl),
		"Bytes of WAL published but not yet follower-acknowledged.",
		func() float64 { info, _ := s.ReplicaInfo(); return float64(info.LagBytes) })
	reg.GaugeFunc(obs.WithLabel(obs.NameReplLagSeconds, "shard", lbl),
		"Age of the oldest unacknowledged WAL segment.",
		func() float64 { info, _ := s.ReplicaInfo(); return info.LagSeconds })
	reg.GaugeFunc(obs.WithLabel(obs.NameReplAckedLSN, "shard", lbl),
		"Highest follower-acknowledged LSN.",
		func() float64 { info, _ := s.ReplicaInfo(); return float64(info.AckedLSN) })
}

// ReplicaInfo implements ReplicaInfoProvider.
func (s *ReplicaShard) ReplicaInfo() (ReplicaInfo, bool) {
	s.replMu.Lock()
	src, promoted, epoch := s.src, s.promoted, s.epoch
	s.replMu.Unlock()
	info := ReplicaInfo{Role: RolePrimary, Epoch: epoch, Promotions: s.promotions.Load()}
	if promoted {
		info.Role = RolePromoted
	}
	if src != nil {
		st := src.Status()
		info.Epoch = st.Epoch
		info.LSN = st.LSN
		info.AckedLSN = st.AckedLSN
		info.LagBytes = st.LagBytes
		info.LagSeconds = st.LagSeconds
		info.Followers = st.Followers
		info.Degraded = st.Degraded
	}
	return info, true
}

// Kill crashes the primary: its stack, sessions and replication source
// are gone; the follower keeps redialing (and failing) until Restart or
// Promote.
func (s *ReplicaShard) Kill() {
	s.LocalShard.lifeMu.Lock()
	defer s.LocalShard.lifeMu.Unlock()
	s.closeSource()
	s.kill()
}

// Restart recovers whichever directory currently owns the shard (the
// original primary's, or the promoted follower's) like LocalShard.Restart,
// and resumes serving the replication stream (a surviving follower
// resynchronizes by snapshot).
func (s *ReplicaShard) Restart() error {
	s.LocalShard.lifeMu.Lock()
	defer s.LocalShard.lifeMu.Unlock()
	s.closeSource()
	if _, err := s.restartAt(s.cfg.Dir); err != nil {
		return err
	}
	s.replMu.Lock()
	epoch := s.epoch
	s.replMu.Unlock()
	return s.openSource(epoch)
}

// Promote fails the shard over to its follower: fence the (presumed dead)
// primary behind a new replication epoch, reopen the shard on the
// follower's directory at its acknowledged LSN, and reconstruct the
// primary's sleeping transactions from the replicated sleep journal. After
// Promote the pair runs without a follower until one is re-seeded.
func (s *ReplicaShard) Promote() error {
	s.LocalShard.lifeMu.Lock()
	defer s.LocalShard.lifeMu.Unlock()
	s.replMu.Lock()
	promoted, epoch := s.promoted, s.epoch
	s.replMu.Unlock()
	if promoted {
		return nil
	}

	// Fence: kill the old primary's stack and stream so a zombie cannot
	// keep committing, then stop the follower's apply loop.
	s.closeSource()
	s.kill()
	follower := s.stopFollower()
	if follower == nil {
		return fmt.Errorf("shard %d: no follower to promote", s.Index())
	}

	newEpoch := epoch + 1
	cursor, err := follower.Promote(newEpoch)
	if err != nil {
		return fmt.Errorf("shard %d: promote: %w", s.Index(), err)
	}
	adopted, err := s.restartAt(s.rcfg.FollowerDir)
	if err != nil {
		return fmt.Errorf("shard %d: promote: %w", s.Index(), err)
	}
	if err := s.openSource(newEpoch); err != nil {
		s.kill()
		return fmt.Errorf("shard %d: promote: %w", s.Index(), err)
	}
	s.replMu.Lock()
	s.promoted = true
	s.replMu.Unlock()
	s.promotions.Add(1)
	if s.promCounter != nil {
		s.promCounter.Inc()
	}
	s.logf("shard %d: promoted follower at acked LSN %d (epoch %d → %d, %d sleeping txs reconstructed)",
		s.Index(), cursor, epoch, newEpoch, adopted)
	return nil
}

// Close shuts both sides down.
func (s *ReplicaShard) Close() {
	s.LocalShard.lifeMu.Lock()
	defer s.LocalShard.lifeMu.Unlock()
	s.closeSource()
	if fol := s.stopFollower(); fol != nil {
		fol.Close()
	}
	s.kill()
}

// FollowerDB exposes the follower's data layer for lag oracles; nil once
// promoted.
func (s *ReplicaShard) FollowerDB() *ldbs.DB {
	s.replMu.Lock()
	defer s.replMu.Unlock()
	if s.follower == nil {
		return nil
	}
	return s.follower.DB()
}

// Stats implements Shard, merging in the replication counters.
func (s *ReplicaShard) Stats() map[string]uint64 {
	st := s.LocalShard.Stats()
	if st == nil {
		return nil
	}
	info, _ := s.ReplicaInfo()
	st["repl_epoch"] = info.Epoch
	st["repl_acked_lsn"] = info.AckedLSN
	st["repl_lag_bytes"] = info.LagBytes
	st["shard_promotions"] = info.Promotions
	return st
}
