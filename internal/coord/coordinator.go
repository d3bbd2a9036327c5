package coord

import (
	"fmt"
	"sync"
	"sync/atomic"

	"scrub/internal/central"
	"scrub/internal/transport"
)

// Options configures a Coordinator. The zero value matches the central
// engines' defaults, which matters: the differential oracle only holds if
// lease TTLs and clocks agree across executors.
type Options = central.Options

// Coordinator is the control plane of a distributed ScrubCentral. It
// owns shard membership and its epochs, pins each query to the shard
// list current at its start, fences its shard RPCs, and replicates
// registrations to standbys. The merge itself — manifests folded into
// stream and watermark state, close barriers collecting partials from
// the pinned shards, render and emit — is a central.Merger whose shard
// handles are this coordinator's RPC clients.
//
// It implements central.Executor, so the query server can drive a
// coordinator wherever it would drive an in-process engine.
type Coordinator struct {
	met    *coordMetrics
	merger *central.Merger

	// fence is this coordinator's fencing epoch, stamped into every
	// start/collect/stop RPC and shard-map push. Standalone deployments
	// run at 0; a leader with standbys runs at its replication term, and
	// a promoted standby takes over at a strictly higher term, so shards
	// reject the deposed leader's RPCs.
	fence atomic.Uint64

	// mu guards membership and registrations. It may be held while the
	// merger takes its own lock (Tick, StopQuery, Status), never the
	// reverse: the merger never calls back into the coordinator.
	mu         sync.Mutex
	members    []*shardClient
	epoch      uint32
	rebalances uint64
	// regs holds each running query's replicated registration: its
	// post-defaults plan, pinned shard-map epoch and replay deadline.
	regs  map[uint64]transport.RepEntry
	onMap func(transport.ShardMap)
	rep   *replicator // nil unless StartReplication was called
}

var _ central.Executor = (*Coordinator)(nil)

// NewCoordinator creates a coordinator with no shards. Register shards
// with AddShard/AddShardConn/HandleHello before starting queries.
func NewCoordinator(opt Options) *Coordinator {
	m := central.NewMerger(opt)
	return &Coordinator{
		met:    newCoordMetrics(opt.Metrics, m.Merges()),
		merger: m,
		regs:   make(map[uint64]transport.RepEntry),
	}
}

// AddShard dials a shard's data address and adds it to the membership,
// bumping the shard-map epoch.
func (c *Coordinator) AddShard(addr string) error {
	conn, err := transport.Dial(addr, rpcTimeout)
	if err != nil {
		return err
	}
	c.AddShardConn(conn, addr)
	return nil
}

// AddShardConn adds a shard over an established connection (pipes,
// tests), bumping the shard-map epoch.
func (c *Coordinator) AddShardConn(conn *transport.Conn, addr string) {
	sc := c.member(conn, addr)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.members = append(c.members, sc)
	c.bumpEpochLocked()
	if g := c.met.shardLag(sc.addr); g != nil {
		g.Set(sc.lagNanos())
	}
}

// member wraps a shard connection in a client that stamps this
// coordinator's fence on its RPCs.
func (c *Coordinator) member(conn *transport.Conn, addr string) *shardClient {
	sc := newShardClient(conn, addr)
	sc.fencing = &c.fence
	return sc
}

// HandleHello admits a shard that announced itself on the data plane.
func (c *Coordinator) HandleHello(h transport.ShardHello) error {
	return c.AddShard(h.DataAddr)
}

// bumpEpochLocked advances the shard-map epoch after a membership change
// and pushes the new map to whoever subscribed with OnShardMap.
func (c *Coordinator) bumpEpochLocked() {
	c.epoch++
	c.rebalances++
	if c.met != nil {
		c.met.rebalances.Inc()
	}
	c.met.setMembership(len(c.members), c.epoch)
	if c.onMap != nil {
		c.onMap(c.shardMapLocked())
	}
	if c.rep != nil {
		m := c.shardMapLocked()
		c.rep.append(transport.RepEntry{
			Kind: transport.RepMembership, MapEpoch: m.Epoch, Addrs: m.Addrs,
		})
	}
}

func (c *Coordinator) shardMapLocked() transport.ShardMap {
	m := transport.ShardMap{Epoch: c.epoch, Fence: c.fence.Load()}
	for _, sc := range c.members {
		m.Addrs = append(m.Addrs, sc.addr)
	}
	return m
}

// ShardMap returns the current epoch-numbered membership.
func (c *Coordinator) ShardMap() transport.ShardMap {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.shardMapLocked()
}

// OnShardMap registers the push hook for membership changes and fires it
// once with the current map. The hook runs with the coordinator locked:
// it must hand the map off (enqueue, send) without calling back in.
func (c *Coordinator) OnShardMap(fn func(transport.ShardMap)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onMap = fn
	if fn != nil {
		fn(c.shardMapLocked())
	}
}

// QueryEpoch reports the shard-map epoch a running query is pinned to,
// for stamping HostQuery.ShardEpoch at registration fan-out.
func (c *Coordinator) QueryEpoch(id uint64) (uint32, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.regs[id]
	return e.PinEpoch, ok
}

// removeDownLocked drops dead shards from the membership (their pinned
// queries keep their clients and degrade; only new queries see the
// shrunken map) and bumps the epoch if anything changed.
//
// The dead client is NOT closed here: it is already latched down (down
// latches exactly when failLocked closed the connection, and the latch is
// never cleared), and queries pinned to it still hold it as a shard
// handle. Their collect/stop calls keep failing fast on the latch and
// take the merger's degrade path — drop caches folded, Degraded flagged
// — rather than dereferencing a client whose contract was torn up
// underneath them.
func (c *Coordinator) removeDownLocked() {
	kept := c.members[:0]
	changed := false
	for _, sc := range c.members {
		if sc.isDown() {
			changed = true
			c.met.dropShard(sc.addr)
			continue
		}
		kept = append(kept, sc)
	}
	c.members = kept
	if changed {
		c.bumpEpochLocked()
	}
}

// StartQuery implements central.Executor: pin the current shard list and
// epoch, install the query on every pinned shard through the merger's
// two-phase start, and replicate the registration. The plan must carry
// its source text — shards re-analyze it against their own catalogs.
func (c *Coordinator) StartQuery(p central.Plan, emit central.EmitFunc) error {
	if p.Text == "" {
		return fmt.Errorf("coord: plan for query %d has no source text (required to distribute to shards)", p.QueryID)
	}
	c.mu.Lock()
	epoch, shards := c.epoch, c.handlesLocked()
	c.mu.Unlock()
	if len(shards) == 0 {
		return fmt.Errorf("coord: no shards joined")
	}
	if err := c.merger.Start(p, emit, shards); err != nil {
		return err
	}
	c.register(p.QueryID, epoch)
	return nil
}

// resumeQuery adopts a replicated registration on a promoted
// coordinator (central.Merger.Resume): at takeover, availability wins
// over atomicity, and every window is flagged Degraded because the
// manifest gap during failover lost stream and watermark accounting.
func (c *Coordinator) resumeQuery(plan *central.Plan, pinEpoch uint32, replayDeadline int64, emit central.EmitFunc) error {
	c.mu.Lock()
	shards := c.handlesLocked()
	c.mu.Unlock()
	if err := c.merger.Resume(*plan, emit, shards, replayDeadline); err != nil {
		return err
	}
	c.register(plan.QueryID, pinEpoch)
	return nil
}

// handlesLocked returns the current members as the shard handles a new
// query pins.
func (c *Coordinator) handlesLocked() []central.ShardHandle {
	shards := make([]central.ShardHandle, len(c.members))
	for i, sc := range c.members {
		shards[i] = sc
	}
	return shards
}

// register records an installed query's registration and appends it to
// the standby log. A StopQuery that raced the install already removed
// the query from the merger, and then nothing is recorded.
func (c *Coordinator) register(id uint64, epoch uint32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	plan, replayDeadline, ok := c.merger.Registration(id)
	if !ok {
		return
	}
	e := transport.RepEntry{
		Kind:           transport.RepQueryStart,
		Start:          ShardStartFromPlan(&plan),
		PinEpoch:       epoch,
		ReplayDeadline: replayDeadline,
	}
	c.regs[id] = e
	if c.rep != nil {
		c.rep.append(e)
	}
}

// HandleManifest folds one routed batch's manifest into the query's
// merge state (central.Merger.HandleManifest).
func (c *Coordinator) HandleManifest(m transport.BatchManifest) {
	if c.met != nil {
		c.met.manifests.Inc()
		c.met.tuples.Add(m.RawTuples)
	}
	c.merger.HandleManifest(m)
}

// HandleBatch implements central.Executor for hosts that predate shard
// maps: the merger routes the whole batch over the query's pinned shards
// itself, then folds the manifest as if a host-side router had sent it.
func (c *Coordinator) HandleBatch(b transport.TupleBatch) { c.merger.HandleBatch(b) }

// Tick implements central.Executor: sweep dead shards out of the
// membership, then run the merger's expiry, hold and close barriers over
// every query's pinned shards.
func (c *Coordinator) Tick(nowNanos int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.removeDownLocked()
	c.merger.Tick(nowNanos)
	if c.met != nil {
		for _, sc := range c.members {
			if g := c.met.shardLag(sc.addr); g != nil {
				g.Set(sc.lagNanos())
			}
		}
	}
}

// StopQuery implements central.Executor: the merger drains every pinned
// shard and emits the remainder; the registration is then withdrawn from
// the standby log.
func (c *Coordinator) StopQuery(id uint64) (transport.QueryStats, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, ok := c.merger.StopQuery(id)
	if !ok {
		return st, false
	}
	delete(c.regs, id)
	if c.rep != nil {
		c.rep.append(transport.RepEntry{Kind: transport.RepQueryStop, QueryID: id})
	}
	return st, true
}

// Stats implements central.Executor.
func (c *Coordinator) Stats(id uint64) (transport.QueryStats, bool) { return c.merger.Stats(id) }

// ActiveQueries implements central.Executor.
func (c *Coordinator) ActiveQueries() []uint64 { return c.merger.ActiveQueries() }

// Status reports the fabric's operational view for scrubql -stats: the
// epoch, merge and rebalance totals, and one row per member shard.
func (c *Coordinator) Status() transport.ShardStatusList {
	c.mu.Lock()
	defer c.mu.Unlock()
	sl := transport.ShardStatusList{
		Epoch:          c.epoch,
		Merges:         c.merger.Merges().Value(),
		Rebalances:     c.rebalances,
		EvictedStreams: c.merger.EvictedStreams(),
	}
	for i, sc := range c.members {
		row := transport.ShardStatus{
			Index:    uint32(i),
			Addr:     sc.addr,
			Down:     sc.isDown(),
			LagNanos: sc.lagNanos(),
		}
		if !row.Down {
			if sr, err := sc.stats(0); err == nil {
				row.ActiveQueries = sr.ActiveQueries
				row.TuplesIn = sr.TuplesIn
				row.LagNanos = sc.lagNanos()
			} else {
				row.Down = true
			}
		}
		if g := c.met.shardLag(sc.addr); g != nil {
			g.Set(row.LagNanos)
		}
		sl.Shards = append(sl.Shards, row)
	}
	return sl
}

// ServeConn answers a data-plane connection carrying manifests and
// control asks from a host-side router or the query server's hub.
func (c *Coordinator) ServeConn(conn *transport.Conn) {
	defer conn.Close()
	for {
		m, err := conn.Recv()
		if err != nil {
			return
		}
		var resp transport.Message
		switch t := m.(type) {
		case transport.BatchManifest:
			c.HandleManifest(t)
			resp = transport.ManifestAck{Seq: t.Seq}
		case transport.ShardStatusReq:
			resp = c.Status()
		case transport.ShardHello:
			// Best effort: a failed dial leaves the shard out of the map.
			c.HandleHello(t)
			continue
		case transport.Ping:
			resp = transport.Pong{Nonce: t.Nonce}
		default:
			continue
		}
		if err := conn.Send(resp); err != nil {
			return
		}
	}
}

// Close tears down every shard connection and stops replication to
// standbys. Queries are not drained.
func (c *Coordinator) Close() {
	c.mu.Lock()
	rep := c.rep
	c.rep = nil
	// Every client a query pinned is a member, or was swept out of the
	// membership only after it latched down and closed.
	for _, sc := range c.members {
		sc.close()
	}
	c.mu.Unlock()
	if rep != nil {
		rep.stop()
	}
}
