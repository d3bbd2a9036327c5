package coord

import (
	"fmt"
	"sync/atomic"
	"time"

	"scrub/internal/central"
	"scrub/internal/event"
	"scrub/internal/ql"
	"scrub/internal/transport"
)

// ShardNode is one shard process's serving side: a driven central.Engine
// behind a per-connection RPC loop. Windows never close here — the
// coordinator's collect barriers are the only close authority — so a
// shard holds state, absorbs sub-batches, and answers collect/stop/stats.
//
// The node also enforces coordinator fencing: it latches the highest
// fencing epoch any start/collect/stop/fence RPC has carried and rejects
// state-draining RPCs from lower epochs. A deposed leader therefore
// cannot collect or drain windows after a standby took over — the
// takeover's higher epoch fences it out on first contact.
type ShardNode struct {
	eng   *central.Engine
	cat   *event.Catalog
	fence atomic.Uint64
}

// NewShardNode creates a shard node over cat. The engine never registers
// metrics of its own: ingest accounting lives at the coordinator, which
// is the only component that sees whole batches.
func NewShardNode(cat *event.Catalog) *ShardNode {
	return &ShardNode{eng: central.NewEngine(), cat: cat}
}

// Engine exposes the underlying driven engine (tests).
func (n *ShardNode) Engine() *central.Engine { return n.eng }

// Fence reports the highest fencing epoch the node has latched.
func (n *ShardNode) Fence() uint64 { return n.fence.Load() }

// admitFence latches f if it is at least the current fencing epoch and
// reports whether the caller is current. Equal epochs are admitted: the
// same leader may speak over many connections.
func (n *ShardNode) admitFence(f uint64) bool {
	for {
		cur := n.fence.Load()
		if f < cur {
			return false
		}
		if f == cur || n.fence.CompareAndSwap(cur, f) {
			return true
		}
	}
}

// Serve accepts connections until the listener closes. Each connection
// gets its own RPC loop; the engine serializes internally.
func (n *ShardNode) Serve(l *transport.Listener) {
	for {
		c, err := l.Accept()
		if err != nil {
			return
		}
		go n.ServeConn(c)
	}
}

// ServeConn answers RPCs on one connection until it fails or closes.
func (n *ShardNode) ServeConn(c *transport.Conn) {
	defer c.Close()
	for {
		m, err := c.Recv()
		if err != nil {
			return
		}
		var resp transport.Message
		switch t := m.(type) {
		case transport.ShardStart:
			resp = n.handleStart(t)
		case transport.ShardSubBatch:
			ack, _ := n.eng.ApplyDriven(transport.TupleBatch{
				QueryID: t.QueryID, HostID: t.HostID, TypeIdx: t.TypeIdx,
				Tuples: t.Tuples,
			})
			ack.Seq = t.Seq
			resp = ack
		case transport.ShardCollectReq:
			if !n.admitFence(t.Fence) {
				resp = transport.ShardPartials{Seq: t.Seq, Stale: true}
				break
			}
			resp = wirePartials(t.Seq, n.eng.CollectDriven(t.QueryID, t.Bound))
		case transport.ShardStopReq:
			if !n.admitFence(t.Fence) {
				resp = transport.ShardPartials{Seq: t.Seq, Stale: true}
				break
			}
			resp = wirePartials(t.Seq, n.eng.DrainDriven(t.QueryID))
		case transport.ShardFence:
			ack := transport.ShardFenceAck{Seq: t.Seq, Ok: n.admitFence(t.Fence)}
			ack.Fence = n.fence.Load()
			if ack.Ok {
				ack.Queries = n.eng.DrivenQueries()
			}
			resp = ack
		case transport.ShardStatsReq:
			resp = n.handleStats(t)
		case transport.Ping:
			resp = transport.Pong{Nonce: t.Nonce}
		default:
			// Unknown messages are ignored rather than answered: replying
			// out of band would desynchronize the caller's sequence.
			continue
		}
		if err := c.Send(resp); err != nil {
			return
		}
	}
}

// handleStart re-analyzes the query text against the shard's own catalog
// and overlays the deployment facts the coordinator resolved, then
// installs the query in driven mode. Re-analysis (rather than shipping a
// compiled plan) keeps the wire format free of expression trees; the
// differential oracle holds both analyses to identical semantics.
//
// Starts are idempotent per query id: a promoted standby re-installs
// every replicated registration, and a shard that already runs the query
// must keep its absorbed window state rather than error or reset.
func (n *ShardNode) handleStart(t transport.ShardStart) transport.ShardAck {
	if !n.admitFence(t.Fence) {
		return transport.ShardAck{Seq: t.Seq, Err: "stale fencing epoch"}
	}
	if _, running := n.eng.DrivenTuplesIn(t.QueryID); running {
		return transport.ShardAck{Seq: t.Seq}
	}
	cp, err := PlanFromShardStart(t, n.cat)
	if err != nil {
		return transport.ShardAck{Seq: t.Seq, Err: err.Error()}
	}
	if err := n.eng.StartDriven(cp); err != nil {
		return transport.ShardAck{Seq: t.Seq, Err: err.Error()}
	}
	return transport.ShardAck{Seq: t.Seq}
}

func (n *ShardNode) handleStats(t transport.ShardStatsReq) transport.ShardStatsResp {
	ids := n.eng.DrivenQueries()
	resp := transport.ShardStatsResp{Seq: t.Seq, ActiveQueries: uint32(len(ids))}
	if t.QueryID != 0 {
		resp.TuplesIn, resp.Found = n.eng.DrivenTuplesIn(t.QueryID)
	} else {
		// QueryID 0 asks for the node view (coordinator Status rows):
		// tuples across every active query.
		resp.Found = true
		for _, id := range ids {
			if in, ok := n.eng.DrivenTuplesIn(id); ok {
				resp.TuplesIn += in
			}
		}
	}
	return resp
}

// PlanFromShardStart rebuilds the central plan a ShardStart describes:
// parse and analyze the text, then apply the coordinator's resolved
// values verbatim — they are post-defaults, so every override is
// unconditional and the shard plan matches the coordinator's bit for bit.
func PlanFromShardStart(t transport.ShardStart, cat *event.Catalog) (central.Plan, error) {
	q, err := ql.Parse(t.Text)
	if err != nil {
		return central.Plan{}, fmt.Errorf("coord: shard parse: %w", err)
	}
	plan, err := ql.Analyze(q, cat)
	if err != nil {
		return central.Plan{}, fmt.Errorf("coord: shard analyze: %w", err)
	}
	cp := central.FromPlan(plan, t.QueryID, t.StartNanos, t.EndNanos,
		int(t.TotalHosts), int(t.SampledHosts))
	cp.Text = t.Text
	cp.Replay = time.Duration(t.ReplayNanos)
	cp.SampleEvents = t.SampleEvents
	cp.Confidence = t.Confidence
	cp.MaxRawRows = int(t.MaxRawRows)
	cp.MaxJoinPending = int(t.MaxJoinPending)
	cp.BudgetCPUPct = t.BudgetCPUPct
	cp.BudgetBytesPerSec = t.BudgetBytesPerSec
	return cp, nil
}

// ShardStartFromPlan is the inverse mapping, built from a post-defaults
// plan at the coordinator.
func ShardStartFromPlan(p *central.Plan) transport.ShardStart {
	return transport.ShardStart{
		QueryID:           p.QueryID,
		Text:              p.Text,
		StartNanos:        p.StartNanos,
		EndNanos:          p.EndNanos,
		ReplayNanos:       int64(p.Replay),
		TotalHosts:        uint32(p.TotalHosts),
		SampledHosts:      uint32(p.SampledHosts),
		SampleEvents:      p.SampleEvents,
		Confidence:        p.Confidence,
		MaxRawRows:        uint32(p.MaxRawRows),
		MaxJoinPending:    uint32(p.MaxJoinPending),
		BudgetCPUPct:      p.BudgetCPUPct,
		BudgetBytesPerSec: p.BudgetBytesPerSec,
	}
}

// wirePartials encodes a collect or drain answer for the wire.
func wirePartials(seq uint64, ps central.Partials) transport.ShardPartials {
	out := transport.ShardPartials{Seq: seq, Found: ps.Found, Late: ps.Late, Overflow: ps.Overflow}
	for _, w := range ps.Windows {
		out.Partials = append(out.Partials, central.EncodePartial(w))
	}
	return out
}
