package central

import (
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"scrub/internal/agg"
	"scrub/internal/event"
	"scrub/internal/stats"
	"scrub/internal/transport"
	"scrub/internal/window"
)

// This file is Engine's driven surface — the shard side of every
// ScrubCentral, the single node included. A driven query never closes a
// window on its own: the Merger's close barriers pull closed windows out
// as Partials, by pointer in process (LocalShard) or serialized with
// EncodePartial and decoded under the query's plan with DecodePartial
// across processes (internal/coord), so Engine, ShardedEngine and the
// shard fabric stay bit-identical under the differential oracle.

// shardLateness effectively disables event-time closing inside shards:
// the merger is the only component that closes windows, at barriers that
// cover every shard, so a window it flushes is complete by construction.
const shardLateness = 365 * 24 * time.Hour

// Partial is one closed driven window's accumulated state.
type Partial = window.Closed[*winState]

// Partials is a shard's answer to a collect or drain: the closed windows
// and the query's cumulative drop counters as of the call. Found is false
// when the shard does not run the query.
type Partials struct {
	Found    bool
	Windows  []Partial
	Late     uint64 // cumulative window-late drops
	Overflow uint64 // cumulative raw-row and join-pending overflow drops
}

// StartDriven installs a query in driven mode: effectively unbounded
// lateness, so the engine never closes a window on its own.
func (e *Engine) StartDriven(p Plan) error {
	p.Lateness = shardLateness
	comp, err := p.prepare()
	if err != nil {
		return err
	}
	win, err := window.NewSlidingManager(p.Window, p.Slide, p.Lateness, func(start, end int64) *winState {
		return newWinState()
	})
	if err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.queries[p.QueryID]; dup {
		return fmt.Errorf("central: query %d already active", p.QueryID)
	}
	qs := &queryState{plan: p, comp: comp, win: win}
	qs.side = sideRow{c: comp, types: qs.plan.Types}
	qs.join = joinRow{c: comp, types: qs.plan.Types}
	qs.keyVals = make([]event.Value, len(comp.groupEvals))
	e.queries[p.QueryID] = qs
	return nil
}

// ApplyDriven folds a sub-batch into a driven query: span filter, window
// routing, join, accumulation and late accounting, with the stream-lease,
// watermark and ingest accounting left out — those live at the Merger,
// which is the only component that sees whole batches. The ack (Seq
// aside, which only the wire sets) is what the shard reports; Route
// folds the per-shard acks (OR HasTs, max MaxTs, sum LateDelta) into the
// batch's manifest. The second result repeats ack.Known.
func (e *Engine) ApplyDriven(b transport.TupleBatch) (transport.ShardBatchAck, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	qs, ok := e.queries[b.QueryID]
	if !ok || int(b.TypeIdx) >= len(qs.plan.Types) {
		return transport.ShardBatchAck{}, false
	}
	return e.applyLocked(qs, b), true
}

// CollectDriven closes and returns every driven window ending at or
// before bound.
func (e *Engine) CollectDriven(id uint64, bound int64) Partials {
	e.mu.Lock()
	defer e.mu.Unlock()
	qs, ok := e.queries[id]
	if !ok {
		return Partials{}
	}
	return e.handOut(qs, qs.win.ForceBefore(bound))
}

// DrainDriven removes a driven query, returning its remaining windows.
func (e *Engine) DrainDriven(id uint64) Partials {
	e.mu.Lock()
	defer e.mu.Unlock()
	qs, ok := e.queries[id]
	if !ok {
		return Partials{}
	}
	delete(e.queries, id)
	return e.handOut(qs, qs.win.Flush())
}

// handOut answers a collect or drain with closed windows, whose join
// tuples stop counting as pending: they can no longer meet a partner.
func (e *Engine) handOut(qs *queryState, closed []Partial) Partials {
	if e.joinPending != nil {
		for _, w := range closed {
			e.joinPending.Add(-int64(w.State.pendingCount))
		}
	}
	return Partials{Found: true, Windows: closed, Late: qs.win.LateDrops(), Overflow: qs.overflow}
}

// DrivenTuplesIn reports how many tuples a driven query absorbed; false
// when the engine does not run it in driven mode.
func (e *Engine) DrivenTuplesIn(id uint64) (uint64, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	qs, ok := e.queries[id]
	if !ok {
		return 0, false
	}
	return qs.tuplesIn, true
}

// DrivenQueries returns the ids of the driven queries, ascending.
func (e *Engine) DrivenQueries() []uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]uint64, 0, len(e.queries))
	for id := range e.queries {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// LocalShard is the in-process ShardHandle: it drives an Engine directly
// and hands window state to the Merger by pointer, with no encoding.
type LocalShard struct{ Engine *Engine }

// Start implements ShardHandle.
func (s LocalShard) Start(p *Plan) error { return s.Engine.StartDriven(*p) }

// Apply implements ShardHandle.
func (s LocalShard) Apply(b transport.TupleBatch) (transport.ShardBatchAck, error) {
	ack, _ := s.Engine.ApplyDriven(b)
	return ack, nil
}

// Collect implements ShardHandle.
func (s LocalShard) Collect(p *Plan, bound int64) (Partials, error) {
	return s.Engine.CollectDriven(p.QueryID, bound), nil
}

// Drain implements ShardHandle.
func (s LocalShard) Drain(p *Plan) (Partials, error) { return s.Engine.DrainDriven(p.QueryID), nil }

// TuplesIn implements ShardHandle.
func (s LocalShard) TuplesIn(id uint64) (uint64, bool) { return s.Engine.DrivenTuplesIn(id) }

// --- partial window state codec ---
//
// Deterministic layout (sorted hosts, sorted group keys) with float state
// as raw IEEE-754 bits, so decode(encode(ws)) merges and renders
// bit-identically to ws. Join-pending state is never encoded: shards
// route by request id, so both sides of a request joined on one shard,
// and pending tuples are irrelevant once the window closed.

// EncodePartial serializes a partial for the wire.
func EncodePartial(w Partial) transport.WindowPartial {
	ws := w.State
	dst := binary.AppendUvarint(nil, ws.tuples)

	hosts := make([]string, 0, len(ws.hosts))
	for h := range ws.hosts {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	dst = binary.AppendUvarint(dst, uint64(len(hosts)))
	for _, h := range hosts {
		dst = appendString(dst, h)
	}

	keys := make([]string, 0, len(ws.groups))
	for k := range ws.groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	for _, k := range keys {
		g := ws.groups[k]
		dst = binary.AppendUvarint(dst, uint64(len(g.keyVals)))
		for _, v := range g.keyVals {
			dst = event.AppendValue(dst, v)
		}
		for _, ag := range g.aggs {
			enc, err := agg.AppendState(dst, ag)
			if err != nil {
				// Unreachable: every aggregator newAggSet builds is
				// encodable. A placeholder count keeps the failure loud at
				// decode rather than silently truncating the partial.
				dst = binary.AppendUvarint(dst, 0)
				continue
			}
			dst = enc
		}
	}

	dst = binary.AppendUvarint(dst, uint64(len(ws.rawRows)))
	for _, row := range ws.rawRows {
		dst = binary.AppendUvarint(dst, uint64(len(row)))
		for _, v := range row {
			dst = event.AppendValue(dst, v)
		}
	}

	mhosts := make([]string, 0, len(ws.perHost))
	for h := range ws.perHost {
		mhosts = append(mhosts, h)
	}
	sort.Strings(mhosts)
	dst = binary.AppendUvarint(dst, uint64(len(mhosts)))
	for _, h := range mhosts {
		dst = appendString(dst, h)
		moments := ws.perHost[h]
		dst = binary.AppendUvarint(dst, uint64(len(moments)))
		for i := range moments {
			dst = moments[i].AppendBinary(dst)
		}
	}
	return transport.WindowPartial{Start: w.Start, End: w.End, Data: dst}
}

// DecodePartial parses a partial EncodePartial serialized under the same
// plan.
func DecodePartial(p *Plan, wp transport.WindowPartial) (Partial, error) {
	b := wp.Data
	ws := newWinState()
	tuples, n := binary.Uvarint(b)
	if n <= 0 {
		return Partial{}, fmt.Errorf("central: decode partial: bad tuple count")
	}
	ws.tuples = tuples

	hostCnt, sz := binary.Uvarint(b[n:])
	if sz <= 0 || hostCnt > uint64(len(b)) {
		return Partial{}, fmt.Errorf("central: decode partial: bad host count")
	}
	n += sz
	for i := uint64(0); i < hostCnt; i++ {
		s, used, err := decodeString(b[n:])
		if err != nil {
			return Partial{}, fmt.Errorf("central: decode partial: host: %w", err)
		}
		ws.hosts[s] = struct{}{}
		n += used
	}

	groupCnt, sz := binary.Uvarint(b[n:])
	if sz <= 0 || groupCnt > uint64(len(b)) {
		return Partial{}, fmt.Errorf("central: decode partial: bad group count")
	}
	n += sz
	for i := uint64(0); i < groupCnt; i++ {
		kvCnt, sz := binary.Uvarint(b[n:])
		if sz <= 0 || kvCnt > uint64(len(b)) {
			return Partial{}, fmt.Errorf("central: decode partial: bad key count")
		}
		n += sz
		var keyVals []event.Value
		for j := uint64(0); j < kvCnt; j++ {
			v, used, err := event.DecodeValue(b[n:])
			if err != nil {
				return Partial{}, fmt.Errorf("central: decode partial: key value: %w", err)
			}
			keyVals = append(keyVals, v)
			n += used
		}
		aggs := make([]agg.Aggregator, len(p.Aggs))
		for j := range p.Aggs {
			a, used, err := agg.DecodeState(p.Aggs[j].Spec, b[n:])
			if err != nil {
				return Partial{}, fmt.Errorf("central: decode partial: agg %d: %w", j, err)
			}
			aggs[j] = a
			n += used
		}
		ws.groups[string(appendKey(nil, keyVals))] = &group{keyVals: keyVals, aggs: aggs}
	}

	rowCnt, sz := binary.Uvarint(b[n:])
	if sz <= 0 || rowCnt > uint64(len(b)) {
		return Partial{}, fmt.Errorf("central: decode partial: bad row count")
	}
	n += sz
	for i := uint64(0); i < rowCnt; i++ {
		valCnt, sz := binary.Uvarint(b[n:])
		if sz <= 0 || valCnt > uint64(len(b)) {
			return Partial{}, fmt.Errorf("central: decode partial: bad row width")
		}
		n += sz
		row := make([]event.Value, valCnt)
		for j := range row {
			v, used, err := event.DecodeValue(b[n:])
			if err != nil {
				return Partial{}, fmt.Errorf("central: decode partial: row value: %w", err)
			}
			row[j] = v
			n += used
		}
		ws.rawRows = append(ws.rawRows, row)
	}

	mhostCnt, sz := binary.Uvarint(b[n:])
	if sz <= 0 || mhostCnt > uint64(len(b)) {
		return Partial{}, fmt.Errorf("central: decode partial: bad moment host count")
	}
	n += sz
	for i := uint64(0); i < mhostCnt; i++ {
		host, used, err := decodeString(b[n:])
		if err != nil {
			return Partial{}, fmt.Errorf("central: decode partial: moment host: %w", err)
		}
		n += used
		mCnt, sz := binary.Uvarint(b[n:])
		if sz <= 0 || mCnt > uint64(len(b)) {
			return Partial{}, fmt.Errorf("central: decode partial: bad moment count")
		}
		n += sz
		moments := make([]stats.Running, mCnt)
		for j := range moments {
			r, used, err := stats.DecodeRunning(b[n:])
			if err != nil {
				return Partial{}, fmt.Errorf("central: decode partial: moment: %w", err)
			}
			moments[j] = r
			n += used
		}
		ws.perHost[host] = moments
	}
	if n != len(b) {
		return Partial{}, fmt.Errorf("central: decode partial: %d trailing bytes", len(b)-n)
	}
	return Partial{Start: wp.Start, End: wp.End, State: ws}, nil
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func decodeString(b []byte) (string, int, error) {
	ln, sz := binary.Uvarint(b)
	if sz <= 0 {
		return "", 0, fmt.Errorf("bad string length")
	}
	if uint64(len(b)-sz) < ln {
		return "", 0, fmt.Errorf("short string")
	}
	return string(b[sz : sz+int(ln)]), sz + int(ln), nil
}
