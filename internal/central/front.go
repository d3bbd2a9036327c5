package central

import (
	"time"

	"scrub/internal/liveness"
	"scrub/internal/obs"
	"scrub/internal/transport"
)

// queryFront is the per-query state Engine and Merger keep alike in
// front of their window state: the compiled plan, stream liveness and
// counters, the replay hold, running stats and the emit hook.
type queryFront struct {
	plan Plan // post-defaults
	comp *compiled
	emit EmitFunc

	// streams holds per-(host, type) stream leases, last-known counters,
	// and max event times. The query watermark is the minimum across
	// *live* streams: hosts whose shipping (or simulated clock) lags
	// never see their tuples declared late by a faster peer, while a
	// crashed or partitioned host is evicted on lease expiry instead of
	// freezing window emission forever.
	streams *liveness.Table
	stats   transport.QueryStats
	tuplesC *obs.Counter // per-query ingest counter; nil without a registry
	// Replay hold (Plan.Replay > 0): while open, no window closes at all —
	// neither watermark-driven nor wall-clock-forced — because replayed
	// history with old event times may still be in flight, and a window
	// that closes early would count that history as late instead of
	// folding it in. The hold releases when every stream that announced
	// replay has sent its ReplayDone marker (liveness.ReplaySettled) or at
	// replayDeadline — lease-clock, 2× the lease TTL past query start —
	// whichever comes first; the deadline bounds the damage of a dropped
	// done marker or of a query no recording host serves.
	replayHold     bool
	replayDeadline int64
}

func newQueryFront(p Plan, comp *compiled, emit EmitFunc, opt *Options, met *centralMetrics) queryFront {
	f := queryFront{
		plan: p, comp: comp, emit: emit,
		streams: liveness.NewTable(opt.LeaseTTL),
		tuplesC: met.queryTuples(p.QueryID),
	}
	if p.Replay > 0 {
		f.replayHold = true
		f.replayDeadline = opt.Clock().UnixNano() + 2*int64(opt.LeaseTTL)
	}
	return f
}

// observe folds one batch's stream facts into the query — from the host
// batch itself at the Engine, from its manifest at the Merger — and
// counts its tuples as ingested. Every batch, counter-only heartbeats
// included, renews the stream's lease (a batch from an evicted stream
// re-admits it); counters are cumulative, so max() keeps a delayed or
// duplicated batch (chaos, retransmits) from regressing them; the
// batch's window-late drops are attributed to the stream, and its max
// in-span event time advances the stream's clock.
func (f *queryFront) observe(man *transport.BatchManifest, nowN int64, met *centralMetrics) {
	if met != nil {
		met.batches.Inc()
		met.tuples.Add(man.RawTuples)
	}
	if f.tuplesC != nil {
		f.tuplesC.Add(man.RawTuples)
	}
	st, _ := f.streams.Touch(liveness.Key{Host: man.HostID, TypeIdx: man.TypeIdx}, nowN)
	st.Matched = max(st.Matched, man.MatchedTotal)
	st.Sampled = max(st.Sampled, man.SampledTotal)
	st.Drops = max(st.Drops, man.QueueDrops)
	st.FoldGovernor(man.EffRate, man.BudgetShed, man.CPUNs, man.ShipBytes)
	f.streams.FoldReplay(st, man.ReplayEpoch, man.ReplayDone)
	st.LateDrops += man.LateDelta
	if man.HasTs {
		st.ObserveTs(man.MaxTs)
	}
}

// holding reports whether the replay hold is still open at leaseNow,
// releasing it when replay has settled or the deadline passed; released
// is true on the call that released it. Engine and Merger share it so
// their close decisions stay bit-identical.
func (f *queryFront) holding(leaseNow int64) (holding, released bool) {
	if f.replayHold && (f.streams.ReplaySettled() || leaseNow >= f.replayDeadline) {
		f.replayHold = false
		return false, true
	}
	return f.replayHold, false
}

// finish stamps a rendered window with the deployment-level accounting —
// host and late drop totals, the Degraded marker (any expired stream
// lease, or the caller's own latch), budget shedding and the full
// per-stream table, so the consumer knows exactly whose data is missing
// — counts it in the query's stats and metrics, and emits it.
func (f *queryFront) finish(rw transport.ResultWindow, lateDrops uint64, degraded bool, met *centralMetrics, t0 time.Time) {
	hostDrops := f.streams.HostDrops()
	rw.Stats.HostDrops = hostDrops
	rw.Stats.LateDrops = lateDrops
	rw.Degraded = f.streams.AnyEvicted() || degraded
	rw.BudgetShed = f.streams.AnyShed()
	rw.Streams = f.streams.Snapshot()
	f.stats.Windows++
	f.stats.Rows += uint64(len(rw.Rows))
	f.stats.HostDrops = hostDrops
	f.stats.LateDrops = lateDrops
	if rw.Degraded {
		f.stats.DegradedWindows++
	}
	if rw.BudgetShed {
		f.stats.ShedWindows++
	}
	f.emit(rw)
	if met != nil {
		met.windows.Inc()
		if rw.Degraded {
			met.degraded.Inc()
		}
		if rw.BudgetShed {
			met.shed.Inc()
		}
		met.closeNs.Observe(float64(time.Since(t0)))
	}
}

// manifestOf carries a host batch's identity and cumulative counters into
// the manifest form queryFront.observe folds.
func manifestOf(b transport.TupleBatch) transport.BatchManifest {
	return transport.BatchManifest{
		QueryID:      b.QueryID,
		HostID:       b.HostID,
		TypeIdx:      b.TypeIdx,
		RawTuples:    uint64(len(b.Tuples)),
		MatchedTotal: b.MatchedTotal,
		SampledTotal: b.SampledTotal,
		QueueDrops:   b.QueueDrops,
		EffRate:      b.EffRate,
		BudgetShed:   b.BudgetShed,
		CPUNs:        b.CPUNs,
		ShipBytes:    b.ShipBytes,
		ReplayEpoch:  b.ReplayEpoch,
		ReplayDone:   b.ReplayDone,
	}
}
