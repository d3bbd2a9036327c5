// Package coord runs ScrubCentral as a multi-process shard fabric: a
// coordinator process owns query registration and shard membership;
// shard processes run central engines in driven mode (no self-closing
// windows); and routers — on the host agents, or inside the coordinator
// for hosts without a shard map — split every tuple batch across shards
// by request-id modulo shard count (central.Route), so the
// request-identifier equi-join stays shard-local.
//
// The merge is not reimplemented here. The coordinator drives a
// central.Merger — the same merge core ShardedEngine runs in process —
// whose shard handles are this package's RPC clients: a client stamps
// the coordinator's fence on its calls, decodes collected partials with
// the query's plan, and latches down on any transport error or stale
// fence, which the merger turns into Degraded windows. Shards acknowledge
// every sub-batch synchronously with what they observed (max in-span
// event time, late-drop deltas); the router folds the acks into a
// BatchManifest that reaches the coordinator only after every shard
// applied its slice, so a close barrier the manifest triggers sees every
// tuple. Window state crosses the wire as serialized partials, merged in
// ascending shard order, so the differential oracle can hold a 1-process
// Engine and an N-process topology to bit-identical windows, rows,
// bounds and stats.
//
// Membership is epoch-numbered: every join or leave bumps the epoch and
// pushes a fresh ShardMap to the host agents. A query pins the epoch
// current at its start (carried on HostQuery), so all hosts split its
// request-id space over the same shard list for the query's whole life;
// later joins serve new queries only, and a shard death degrades the
// queries pinned to it (results keep flowing, flagged Degraded) instead
// of wedging their watermarks.
//
//scrub:longlived
package coord

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"scrub/internal/central"
	"scrub/internal/transport"
)

// rpcTimeout bounds every synchronous shard RPC so a hung (but not yet
// closed) shard process cannot wedge the coordinator or a router; lease
// expiry needs failures to surface in bounded time.
const rpcTimeout = 5 * time.Second

// shardClient is one synchronous RPC channel to a shard process (or, for
// replication and manifests, to a peer coordinator). Requests are
// serialized per client and matched to responses by sequence number; any
// transport error or sequence mismatch marks the client down and closes
// the connection — callers degrade, they never block forever.
//
// It is the RPC implementation of central.ShardHandle.
type shardClient struct {
	addr string
	// fencing points at the owning coordinator's fencing epoch, stamped
	// on start/collect/stop RPCs; nil (a router's client) means 0.
	fencing *atomic.Uint64

	mu   sync.Mutex
	conn *transport.Conn
	seq  uint64

	down   atomic.Bool
	lastOK atomic.Int64 // wall nanos of the last successful round-trip
}

// newShardClient wraps an established connection (tests, pipes).
func newShardClient(conn *transport.Conn, addr string) *shardClient {
	c := &shardClient{addr: addr, conn: conn}
	c.lastOK.Store(time.Now().UnixNano())
	return c
}

// dialShard connects to a shard's data address.
func dialShard(addr string) (*shardClient, error) {
	conn, err := transport.Dial(addr, rpcTimeout)
	if err != nil {
		return nil, err
	}
	return newShardClient(conn, addr), nil
}

func (c *shardClient) isDown() bool { return c.down.Load() }

// lagNanos reports how long ago the last successful RPC completed.
func (c *shardClient) lagNanos() int64 { return time.Now().UnixNano() - c.lastOK.Load() }

func (c *shardClient) close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failLocked()
}

func (c *shardClient) failLocked() {
	c.down.Store(true)
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// do sends one request built with the next sequence number and returns
// the response. The read deadline keeps a silent peer from blocking the
// caller past rpcTimeout.
func (c *shardClient) do(build func(seq uint64) transport.Message) (transport.Message, uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil, 0, fmt.Errorf("coord: shard %s is down", c.addr)
	}
	c.seq++
	seq := c.seq
	c.conn.SetReadDeadline(time.Now().Add(rpcTimeout))
	if err := c.conn.Send(build(seq)); err != nil {
		c.failLocked()
		return nil, 0, err
	}
	resp, err := c.conn.Recv()
	if err != nil {
		c.failLocked()
		return nil, 0, err
	}
	c.lastOK.Store(time.Now().UnixNano())
	return resp, seq, nil
}

func (c *shardClient) seqErr(got transport.Message) error {
	c.mu.Lock()
	c.failLocked()
	c.mu.Unlock()
	return fmt.Errorf("coord: shard %s: unexpected response %s", c.addr, transport.Name(got))
}

var _ central.ShardHandle = (*shardClient)(nil)

func (c *shardClient) fenceNow() uint64 {
	if c.fencing == nil {
		return 0
	}
	return c.fencing.Load()
}

// Start implements central.ShardHandle. Starts are idempotent shard-side.
func (c *shardClient) Start(p *central.Plan) error {
	msg := ShardStartFromPlan(p)
	msg.Fence = c.fenceNow()
	resp, seq, err := c.do(func(s uint64) transport.Message { msg.Seq = s; return msg })
	if err != nil {
		return err
	}
	ack, ok := resp.(transport.ShardAck)
	if !ok || ack.Seq != seq {
		return c.seqErr(resp)
	}
	if ack.Err != "" {
		return fmt.Errorf("coord: shard %s: %s", c.addr, ack.Err)
	}
	return nil
}

// Apply implements central.ShardHandle.
func (c *shardClient) Apply(b transport.TupleBatch) (transport.ShardBatchAck, error) {
	resp, seq, err := c.do(func(s uint64) transport.Message {
		return transport.ShardSubBatch{Seq: s, QueryID: b.QueryID, HostID: b.HostID, TypeIdx: b.TypeIdx, Tuples: b.Tuples}
	})
	if err != nil {
		return transport.ShardBatchAck{}, err
	}
	ack, ok := resp.(transport.ShardBatchAck)
	if !ok || ack.Seq != seq {
		return transport.ShardBatchAck{}, c.seqErr(resp)
	}
	return ack, nil
}

// staleErr latches the client down after a shard rejected the caller's
// fencing epoch: the coordinator holding this client was deposed, and
// every further RPC from it would be rejected the same way. Latching
// down sends its queries into the ordinary degrade path — a deposed
// leader stops emitting instead of emitting windows that conflict with
// its successor's.
func (c *shardClient) staleErr() error {
	c.close()
	return fmt.Errorf("coord: shard %s: stale fencing epoch (deposed)", c.addr)
}

// Collect implements central.ShardHandle.
func (c *shardClient) Collect(p *central.Plan, bound int64) (central.Partials, error) {
	fence := c.fenceNow()
	return c.partials(p, func(s uint64) transport.Message {
		return transport.ShardCollectReq{Seq: s, Fence: fence, QueryID: p.QueryID, Bound: bound}
	})
}

// Drain implements central.ShardHandle.
func (c *shardClient) Drain(p *central.Plan) (central.Partials, error) {
	return c.partials(p, c.stopReq(p.QueryID, c.fenceNow()))
}

func (c *shardClient) stopReq(queryID, fence uint64) func(uint64) transport.Message {
	return func(s uint64) transport.Message {
		return transport.ShardStopReq{Seq: s, Fence: fence, QueryID: queryID}
	}
}

// partials runs a collect or stop RPC and decodes the returned windows
// with the query's plan. Undecodable state is lost state: the client
// latches down, so the merger flags the query rather than emit a
// silently incomplete window.
func (c *shardClient) partials(p *central.Plan, build func(seq uint64) transport.Message) (central.Partials, error) {
	resp, seq, err := c.do(build)
	if err != nil {
		return central.Partials{}, err
	}
	sp, ok := resp.(transport.ShardPartials)
	if !ok || sp.Seq != seq {
		return central.Partials{}, c.seqErr(resp)
	}
	if sp.Stale {
		return central.Partials{}, c.staleErr()
	}
	out := central.Partials{Found: sp.Found, Late: sp.Late, Overflow: sp.Overflow}
	for _, wp := range sp.Partials {
		w, err := central.DecodePartial(p, wp)
		if err != nil {
			c.close()
			return central.Partials{}, err
		}
		out.Windows = append(out.Windows, w)
	}
	return out, nil
}

// TuplesIn implements central.ShardHandle.
func (c *shardClient) TuplesIn(id uint64) (uint64, bool) {
	sr, err := c.stats(id)
	return sr.TuplesIn, err == nil && sr.Found
}

// fence installs the caller's fencing epoch on the shard and returns the
// shard's active query ids for takeover reconciliation.
func (c *shardClient) fence(f uint64) (transport.ShardFenceAck, error) {
	resp, seq, err := c.do(func(s uint64) transport.Message {
		return transport.ShardFence{Seq: s, Fence: f}
	})
	if err != nil {
		return transport.ShardFenceAck{}, err
	}
	ack, ok := resp.(transport.ShardFenceAck)
	if !ok || ack.Seq != seq {
		return transport.ShardFenceAck{}, c.seqErr(resp)
	}
	if !ack.Ok {
		return ack, c.staleErr()
	}
	return ack, nil
}

func (c *shardClient) stats(queryID uint64) (transport.ShardStatsResp, error) {
	resp, seq, err := c.do(func(s uint64) transport.Message {
		return transport.ShardStatsReq{Seq: s, QueryID: queryID}
	})
	if err != nil {
		return transport.ShardStatsResp{}, err
	}
	sr, ok := resp.(transport.ShardStatsResp)
	if !ok || sr.Seq != seq {
		return transport.ShardStatsResp{}, c.seqErr(resp)
	}
	return sr, nil
}

// repAppend ships replication log entries (or a heartbeat, when entries
// is empty) to a standby over the same serialized RPC channel shards
// use.
func (c *shardClient) repAppend(term, index uint64, entries []transport.RepEntry) (transport.RepAck, error) {
	resp, seq, err := c.do(func(s uint64) transport.Message {
		return transport.RepAppend{Seq: s, Term: term, Index: index, Entries: entries}
	})
	if err != nil {
		return transport.RepAck{}, err
	}
	ack, ok := resp.(transport.RepAck)
	if !ok || ack.Seq != seq {
		return transport.RepAck{}, c.seqErr(resp)
	}
	return ack, nil
}

func (c *shardClient) ping(nonce uint64) error {
	resp, _, err := c.do(func(s uint64) transport.Message { return transport.Ping{Nonce: nonce} })
	if err != nil {
		return err
	}
	if p, ok := resp.(transport.Pong); !ok || p.Nonce != nonce {
		return c.seqErr(resp)
	}
	return nil
}
