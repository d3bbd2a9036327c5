package central

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"scrub/internal/liveness"
	"scrub/internal/obs"
	"scrub/internal/transport"
)

// ShardHandle is one shard of a sharded ScrubCentral as the Merger drives
// it. Two implementations exist: LocalShard calls a driven Engine in
// process and hands window state over by pointer; internal/coord's shard
// client reaches a shard process by RPC, decodes partials with the
// query's plan, and latches down on any transport error or stale fence.
// An error from any method means the shard's contribution is lost; the
// Merger degrades the query rather than stall on it.
type ShardHandle interface {
	// Start installs the query in driven mode (Engine.StartDriven).
	Start(p *Plan) error
	// Apply folds one sub-batch into the shard's copy of the query;
	// ack.Known is false when the shard does not run the query.
	Apply(b transport.TupleBatch) (transport.ShardBatchAck, error)
	// Collect closes and returns the query's windows ending at or before
	// bound, with the shard's cumulative drop counters.
	Collect(p *Plan, bound int64) (Partials, error)
	// Drain removes the query, returning its remaining windows and final
	// drop counters.
	Drain(p *Plan) (Partials, error)
	// TuplesIn reports how many tuples the shard absorbed for the query.
	TuplesIn(id uint64) (uint64, bool)
}

// Merger is the merge layer of a sharded ScrubCentral — the paper's
// "small ScrubCentral cluster" (§8.1). Tuples route to shards by request
// id (Route), so the request-identifier equi-join stays shard-local;
// stream leases, counters, the replay hold and the watermark live here,
// the only place that sees whole batches. At each close barrier every
// shard surrenders its closed windows, which merge in ascending shard
// order through the mergeable aggregators and render exactly like the
// single-node engine (scale-up, bounds, HAVING, ORDER BY, LIMIT).
//
// ShardedEngine is a Merger over in-process shards; internal/coord's
// Coordinator drives one over shard processes.
type Merger struct {
	opt    Options
	met    *centralMetrics
	merges obs.Counter // window-partial merge folds performed

	mu      sync.Mutex
	queries map[uint64]*mergedQuery
}

type mergedQuery struct {
	queryFront

	// installed flips true once every shard accepted the start. Until
	// then the entry only reserves the query id: batches and manifests
	// are dropped (their tuples never reached a registered shard query)
	// and StopQuery reports the query unknown, so a rolled-back start
	// never races traffic folding state into it.
	installed bool

	// shards is the topology pinned at start, in merge order.
	shards        []ShardHandle
	shardLate     []uint64 // cumulative window-late drops, by shard index
	shardOverflow []uint64 // cumulative overflow drops, by shard index
	// degraded latches when a shard call fails: part of the query's state
	// is unreachable, so every window from then on is flagged Degraded
	// rather than silently incomplete.
	degraded bool

	// pending holds merged-but-unflushed window state by start time.
	pending map[int64]*winState
	// mergeDrops counts raw rows truncated when shard partials merged past
	// MaxRawRows; folded into the query's late/overflow totals.
	mergeDrops uint64
	// stoppedShardDrops carries the shards' final drop totals once
	// StopQuery has drained them, so windows flushed during shutdown
	// still report every drop counted so far.
	stoppedShardDrops uint64
	// routeDrops tracks cumulative routing failures per stream for whole
	// batches this merger routes itself (HandleBatch).
	routeDrops map[liveness.Key]uint64
}

// NewMerger returns a merger with no queries. Shards are supplied per
// query, at Start.
func NewMerger(opt Options) *Merger {
	opt.fillDefaults()
	return &Merger{opt: opt, met: newCentralMetrics(opt.Metrics), queries: make(map[uint64]*mergedQuery)}
}

// Merges returns the counter of window-partial merge folds.
func (m *Merger) Merges() *obs.Counter { return &m.merges }

// register validates and compiles a plan and publishes it uninstalled.
func (m *Merger) register(p Plan, emit EmitFunc, shards []ShardHandle) (*mergedQuery, error) {
	if emit == nil {
		return nil, fmt.Errorf("central: nil emit")
	}
	comp, err := p.prepare()
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.queries[p.QueryID]; dup {
		return nil, fmt.Errorf("central: query %d already active", p.QueryID)
	}
	q := &mergedQuery{
		queryFront:    newQueryFront(p, comp, emit, &m.opt, m.met),
		shards:        shards,
		shardLate:     make([]uint64, len(shards)),
		shardOverflow: make([]uint64, len(shards)),
		pending:       make(map[int64]*winState),
		routeDrops:    make(map[liveness.Key]uint64),
	}
	m.queries[p.QueryID] = q
	return q, nil
}

// Start installs a query over shards in two phases: the id is reserved,
// every shard starts the query (the shard calls run unlocked, so traffic
// for other queries keeps flowing), and only then does the query absorb
// traffic. A shard that refuses rolls the start back on the shards that
// accepted.
func (m *Merger) Start(p Plan, emit EmitFunc, shards []ShardHandle) error {
	q, err := m.register(p, emit, shards)
	if err != nil {
		return err
	}
	for i, h := range shards {
		if err := h.Start(&q.plan); err != nil {
			for _, started := range shards[:i] {
				// Best effort: a shard that cannot drain is unreachable,
				// and the query it would leak there is never collected.
				_, _ = started.Drain(&q.plan)
			}
			m.mu.Lock()
			delete(m.queries, q.plan.QueryID)
			m.met.dropQuery(q.plan.QueryID)
			m.mu.Unlock()
			return err
		}
	}
	m.mu.Lock()
	q.installed = true
	m.mu.Unlock()
	return nil
}

// Resume adopts a query another merger was running (coordinator
// takeover). Unlike Start it never rolls back: shard starts are
// idempotent, and a shard that refuses contributes degraded windows, as
// if it had died mid-query. The query resumes Degraded, because the
// stream and watermark accounting the old merger held is gone. The
// replay hold, if any, keeps the old merger's deadline.
func (m *Merger) Resume(p Plan, emit EmitFunc, shards []ShardHandle, replayDeadline int64) error {
	q, err := m.register(p, emit, shards)
	if err != nil {
		return err
	}
	for _, h := range shards {
		_ = h.Start(&q.plan) // a refusing shard degrades the query, already latched below
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	q.replayHold = q.plan.Replay > 0 && replayDeadline > m.opt.Clock().UnixNano()
	q.replayDeadline = replayDeadline
	q.degraded = true
	q.installed = true
	return nil
}

// Registration reports an installed query's post-defaults plan and
// replay-hold deadline, for control-plane replication.
func (m *Merger) Registration(id uint64) (Plan, int64, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	q := m.installedLocked(id)
	if q == nil {
		return Plan{}, 0, false
	}
	return q.plan, q.replayDeadline, true
}

// installedLocked is the one admission check: traffic, stops and stats
// reach a query only once its install finished.
func (m *Merger) installedLocked(id uint64) *mergedQuery {
	q, ok := m.queries[id]
	if !ok || !q.installed {
		return nil
	}
	return q
}

// HandleBatch routes a whole host batch across the query's shards and
// folds the resulting manifest, exactly as a host-side router followed
// by HandleManifest would.
func (m *Merger) HandleBatch(b transport.TupleBatch) {
	m.mu.Lock()
	defer m.mu.Unlock()
	q := m.installedLocked(b.QueryID)
	if q == nil || int(b.TypeIdx) >= len(q.plan.Types) {
		return
	}
	key := liveness.Key{Host: b.HostID, TypeIdx: b.TypeIdx}
	cum := q.routeDrops[key]
	man := Route(b, q.shards, &cum)
	q.routeDrops[key] = cum
	m.foldLocked(q, man)
}

// HandleManifest folds one routed batch's manifest into the query's
// stream, watermark and window state. The router applied the batch's
// tuples to the shards before sending it, so a close barrier this
// manifest triggers sees every one of them.
func (m *Merger) HandleManifest(man transport.BatchManifest) {
	m.mu.Lock()
	defer m.mu.Unlock()
	q := m.installedLocked(man.QueryID)
	if q == nil || int(man.TypeIdx) >= len(q.plan.Types) {
		return
	}
	m.foldLocked(q, man)
}

// foldLocked applies the single-node engine's event-time semantics to a
// manifest — lease renewal, counter folding, per-stream late-drop
// attribution, watermark advancement on the max in-span event time, and
// window closing as the watermark passes — so Engine and Merger agree
// batch for batch, not just at ticks. A manifest whose tuples were all
// shard-side filtered or late still advances its stream's clock;
// skipping it would stall the watermark for every stream until this
// one's lease expired.
func (m *Merger) foldLocked(q *mergedQuery, man transport.BatchManifest) {
	for i := 0; i < len(q.shards) && i < len(man.ShardLate); i++ {
		q.shardLate[i] = max(q.shardLate[i], man.ShardLate[i])
	}
	for i := 0; i < len(q.shards) && i < len(man.ShardOverflow); i++ {
		q.shardOverflow[i] = max(q.shardOverflow[i], man.ShardOverflow[i])
	}
	nowN := m.opt.Clock().UnixNano()
	q.observe(&man, nowN, m.met)
	// A manifest that releases the replay hold (its ReplayDone marker
	// settled the last replaying stream) closes windows even when it
	// carried no tuples of its own.
	holding, released := q.holding(nowN)
	if !holding && (man.HasTs || released) {
		if wm, ok := q.streams.Watermark(); ok {
			m.closeLocked(q, wm-int64(q.plan.Lateness))
		}
	}
}

// Tick closes windows by wall clock, with the single-node engine's
// sequence: expire leases before the hold check (evicting a replaying
// stream can settle the replay), skip every close while the hold is
// open, and when expiry evicted a stream — or this tick released the
// hold — close at the watermark recomputed over the survivors first.
func (m *Merger) Tick(nowNanos int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	leaseNow := m.opt.Clock().UnixNano()
	for _, q := range m.queries {
		if !q.installed {
			continue
		}
		evicted := q.streams.Expire(leaseNow)
		holding, released := q.holding(leaseNow)
		if holding {
			continue
		}
		if len(evicted) > 0 || released {
			if wm, ok := q.streams.Watermark(); ok {
				m.closeLocked(q, wm-int64(q.plan.Lateness))
			}
		}
		m.closeLocked(q, nowNanos-int64(q.plan.Lateness))
	}
}

// closeLocked is the close barrier: every shard, in ascending order,
// surrenders its windows ending at or before bound; they merge into the
// pending set, and the pending windows the bound covers render and emit
// in start order. Because the same bound reaches every shard before any
// flush, a flushed window can never receive more tuples from a shard
// (they would be late there too). The collect responses also refresh the
// cached drop counters the emitted windows report.
func (m *Merger) closeLocked(q *mergedQuery, bound int64) {
	for i, h := range q.shards {
		ps, err := h.Collect(&q.plan, bound)
		if err != nil {
			q.degraded = true
			continue
		}
		if !ps.Found {
			continue
		}
		q.shardLate[i] = max(q.shardLate[i], ps.Late)
		q.shardOverflow[i] = max(q.shardOverflow[i], ps.Overflow)
		m.mergeLocked(q, ps.Windows)
	}
	m.flushLocked(q, bound)
}

func (m *Merger) mergeLocked(q *mergedQuery, windows []Partial) {
	for _, w := range windows {
		if dst, ok := q.pending[w.Start]; ok {
			q.mergeDrops += mergeWinStates(&q.plan, dst, w.State)
			m.merges.Inc()
		} else {
			q.pending[w.Start] = w.State
		}
	}
}

// flushLocked renders and emits pending windows ending at or before
// bound, in start order.
func (m *Merger) flushLocked(q *mergedQuery, bound int64) {
	var starts []int64
	winSize := int64(q.plan.Window)
	for start := range q.pending {
		if start+winSize <= bound {
			starts = append(starts, start)
		}
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	for _, start := range starts {
		m.emitLocked(q, start, q.pending[start])
		delete(q.pending, start)
	}
}

func (m *Merger) emitLocked(q *mergedQuery, start int64, ws *winState) {
	var t0 time.Time
	if m.met != nil {
		t0 = time.Now()
	}
	rw := renderWindow(&q.plan, q.comp, start, start+int64(q.plan.Window), ws,
		q.streams.RatesByHost(q.plan.SampleEvents))
	lateDrops := q.mergeDrops + q.stoppedShardDrops
	for i := range q.shards {
		lateDrops += q.shardLate[i] + q.shardOverflow[i]
	}
	q.stats.TuplesIn += ws.tuples
	q.finish(rw, lateDrops, q.degraded, m.met, t0)
}

// StopQuery drains every shard, merges and emits the remainder, and
// returns the final stats. A shard that cannot be drained contributes
// its last-known drop totals: its window state is gone, which the
// Degraded flag reports.
func (m *Merger) StopQuery(id uint64) (transport.QueryStats, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	q := m.installedLocked(id)
	if q == nil {
		return transport.QueryStats{}, false
	}
	var lateDrops uint64
	for i, h := range q.shards {
		ps, err := h.Drain(&q.plan)
		if err != nil {
			q.degraded = true
			lateDrops += q.shardLate[i] + q.shardOverflow[i]
			continue
		}
		if !ps.Found {
			continue
		}
		lateDrops += ps.Late + ps.Overflow
		m.mergeLocked(q, ps.Windows)
	}
	// The drained totals supersede the per-shard caches, which must not
	// count the same drops a second time.
	q.stoppedShardDrops = lateDrops
	clear(q.shardLate)
	clear(q.shardOverflow)
	m.flushLocked(q, int64(1)<<62-1)
	q.stats.LateDrops = lateDrops + q.mergeDrops
	q.stats.HostDrops = q.streams.HostDrops()
	delete(m.queries, id)
	m.met.dropQuery(id)
	return q.stats, true
}

// Stats returns a query's running stats; TuplesIn so far is what the
// shards have absorbed.
func (m *Merger) Stats(id uint64) (transport.QueryStats, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	q := m.installedLocked(id)
	if q == nil {
		return transport.QueryStats{}, false
	}
	st := q.stats
	var tuples uint64
	for _, h := range q.shards {
		if n, ok := h.TuplesIn(id); ok {
			tuples += n
		}
	}
	st.TuplesIn = max(st.TuplesIn, tuples)
	return st, true
}

// ActiveQueries returns the installed query ids.
func (m *Merger) ActiveQueries() []uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]uint64, 0, len(m.queries))
	for id, q := range m.queries {
		if q.installed {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// EvictedStreams counts the streams currently evicted across every query.
func (m *Merger) EvictedStreams() uint32 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var n uint32
	for _, q := range m.queries {
		for _, s := range q.streams.Snapshot() {
			if s.Evicted {
				n++
			}
		}
	}
	return n
}

// Route splits one host batch across shards by request id modulo shard
// count, applies every slice, and folds the acks into the batch's
// manifest. It is the one routing function: host-side routers call it
// before reporting the manifest to the coordinator, and the Merger calls
// it for whole batches.
//
// No span filter runs here: each shard applies the query's filter itself
// (Engine.ApplyDriven) and acks HasTs/MaxTs over in-span tuples only, so
// the manifest carries exactly what the merger needs while routing stays
// plan-free. cumDrops accumulates tuples that could not reach their
// shard; the manifest's QueueDrops carries the host's own drops plus
// those routing failures.
func Route(b transport.TupleBatch, shards []ShardHandle, cumDrops *uint64) transport.BatchManifest {
	m := manifestOf(b)
	m.ShardLate = make([]uint64, len(shards))
	m.ShardOverflow = make([]uint64, len(shards))
	n := uint64(len(shards))
	sub := make([][]transport.Tuple, len(shards))
	for _, t := range b.Tuples {
		i := int(t.RequestID % n)
		// Sub-batches alias the caller's pooled tuple memory only within
		// this call: every Apply below completes before Route returns, and
		// shards copy whatever they keep.
		//scrub:allowretain(synchronous fan-out; every Apply completes before Route returns)
		sub[i] = append(sub[i], t)
	}
	for i, tuples := range sub {
		if len(tuples) == 0 {
			continue
		}
		ack, err := shards[i].Apply(transport.TupleBatch{
			QueryID: b.QueryID, HostID: b.HostID, TypeIdx: b.TypeIdx,
			Tuples: tuples,
		})
		if err != nil {
			*cumDrops += uint64(len(tuples))
			continue
		}
		if !ack.Known {
			continue
		}
		if ack.HasTs && (!m.HasTs || ack.MaxTs > m.MaxTs) {
			m.MaxTs = ack.MaxTs
		}
		m.HasTs = m.HasTs || ack.HasTs
		m.LateDelta += ack.LateDelta
		m.ShardLate[i] = ack.Late
		m.ShardOverflow[i] = ack.Overflow
	}
	m.QueueDrops = b.QueueDrops + *cumDrops
	return m
}
