package main

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"scrub/internal/event"
	"scrub/internal/transport"
)

// topology names how ScrubCentral is deployed for a workload.
type topology int

const (
	// topoEngine: one central.Engine behind the TCP hub; hosts ship
	// through host.NetSink, each query streams to its own client.
	topoEngine topology = iota
	// topoFabric: a coord.Coordinator plus two coord.ShardNodes over
	// loopback; hosts ship through coord.Router.
	topoFabric
	// topoInproc: the engine, server and hosts share calls directly: the
	// sink calls Executor.HandleBatch and the dispatcher Agent.Start/Stop.
	topoInproc
)

// queryKind names a query shape and with it the way its windows are
// checked against the tally.
type queryKind int

const (
	qGroupUser  queryKind = iota // group-by on bid.user_id: count, sum
	qJoinReason                  // bid ⋈ exclusion grouped by reason
	qTopKUser                    // top_k(bid.user_id, 10)
	qCampaign                    // one selective campaign predicate, grouped by exchange
)

// lateness is the central plan's default event-time slack: a window is
// due at its end plus this.
const lateness = 2 * time.Second

// topK is the k of the top-k query; topKCapacity is the SpaceSaving
// counter capacity agg.New gives it (max(8k, 64)).
const (
	topK         = 10
	topKCapacity = 80
)

// fanoutPreds distinct predicates are cycled over by host-fanout's
// standing queries; each matches one campaign id of numCampaigns (1%).
const (
	fanoutPreds   = 16
	fanoutQueries = 128
)

type querySpec struct {
	kind  queryKind
	param int // qCampaign: the campaign id
	text  string
}

type workload struct {
	name      string
	topo      topology
	reqPerSec int
	window    time.Duration
	queries   []querySpec
	// rotateEvery, when set, cancels the oldest standing query and
	// submits its replacement on that period during the measured phase.
	rotateEvery time.Duration
}

// mixQueries are the three queries of both *-mix workloads.
var mixQueries = []querySpec{
	{kind: qGroupUser, text: `select bid.user_id, count(*), sum(bid.exchange_id) from bid group by bid.user_id window 100ms duration 1h`},
	{kind: qJoinReason, text: `select exclusion.reason, count(*) from bid, exclusion group by exclusion.reason window 100ms duration 1h`},
	{kind: qTopKUser, text: fmt.Sprintf(`select top_k(bid.user_id, %d) from bid window 100ms duration 1h`, topK)},
}

func campaignQuery(c int) querySpec {
	return querySpec{kind: qCampaign, param: c, text: fmt.Sprintf(
		`select bid.exchange_id, count(*), sum(bid.line_item_id) from bid where bid.campaign_id = %d group by bid.exchange_id window 1s duration 1h`, c)}
}

func fanoutSpecs() []querySpec {
	qs := make([]querySpec, fanoutQueries)
	for i := range qs {
		qs[i] = campaignQuery(i % fanoutPreds)
	}
	return qs
}

// mixRate is the request rate of both *-mix workloads (each request is
// one bid plus 1.5 exclusions on average).
const mixRate = 20_000

var workloads = []*workload{
	// The production single-central path: ingest, decode and render
	// dominate.
	{name: "engine-mix", topo: topoEngine, reqPerSec: mixRate, window: 100 * time.Millisecond, queries: mixQueries},
	// The same traffic over a coordinator and two shards: the difference
	// from engine-mix is router split, shard RPCs, manifests and merge.
	{name: "fabric-mix", topo: topoFabric, reqPerSec: mixRate, window: 100 * time.Millisecond, queries: mixQueries},
	// Many selective standing queries, rotated so index rebuilds run
	// beside Log dispatch: host dispatch dominates and central, transport
	// and coord idle, so a change there must read "no change" here.
	{name: "host-fanout", topo: topoInproc, reqPerSec: 20_000, window: time.Second, queries: fanoutSpecs(),
		rotateEvery: 200 * time.Millisecond},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// cell is one compact result row: a group key with its count and sum.
type cell struct{ key, n, sum int64 }

// gotWindow is a received result window reduced to what the check
// needs: its group count, counted tuples and an order-independent digest
// of its cells. Only small results keep the cells themselves, so a run's
// worth of high-cardinality windows does not sit in the measured heap.
type gotWindow struct {
	start, end int64
	recv       int64 // wall nanos the client received it
	degraded   bool
	groups     int
	tuples     int64
	digest     uint64
	cells      []cell // nil when the window has more than keepCells groups
	bad        string // the rows could not be read
}

// keepCells bounds the groups a received window keeps verbatim.
const keepCells = 16

// cellHash mixes one cell into 64 bits; digests add cell hashes, so they
// do not depend on row order.
func cellHash(c cell) uint64 {
	h := uint64(c.key)*0x9e3779b97f4a7c15 ^ uint64(c.n)*0xc2b2ae3d27d4eb4f ^ uint64(c.sum)*0x165667b19e3779f9
	h ^= h >> 31
	h *= 0xbf58476d1ce4e5b9
	return h ^ h>>29
}

// summarize fills the group count, tuple count and digest of cells.
func (g *gotWindow) summarize(cells []cell) {
	g.groups, g.tuples, g.digest = len(cells), 0, 0
	for _, c := range cells {
		g.tuples += c.n
		g.digest += cellHash(c)
	}
	if len(cells) <= keepCells {
		g.cells = cells
	}
}

var reasonIndex = func() map[string]int64 {
	m := make(map[string]int64, numReasons)
	for i, r := range reasons {
		m[r] = int64(i)
	}
	return m
}()

func asInt(v event.Value) (int64, bool) {
	if i, ok := v.AsInt(); ok {
		return i, true
	}
	if f, ok := v.AsFloat(); ok && f == float64(int64(f)) {
		return int64(f), true
	}
	return 0, false
}

// compactWindow reduces a result window to cells for its query kind.
func compactWindow(kind queryKind, rw transport.ResultWindow, recv int64) gotWindow {
	g := gotWindow{start: rw.WindowStart, end: rw.WindowEnd, recv: recv, degraded: rw.Degraded}
	fail := func(format string, args ...any) gotWindow {
		g.bad = fmt.Sprintf(format, args...)
		g.cells = nil
		return g
	}
	if kind == qTopKUser {
		if len(rw.Rows) != 1 || len(rw.Rows[0]) != 1 {
			return fail("top_k: want 1 row of 1 column, got %d rows", len(rw.Rows))
		}
		list, ok := rw.Rows[0][0].AsList()
		if !ok {
			return fail("top_k: not a list: %v", rw.Rows[0][0])
		}
		for _, e := range list {
			s, _ := e.AsStr()
			item, count, found := strings.Cut(s, "=")
			k, err1 := strconv.ParseInt(item, 10, 64)
			n, err2 := strconv.ParseInt(count, 10, 64)
			if !found || err1 != nil || err2 != nil {
				return fail("top_k: bad entry %q", s)
			}
			g.cells = append(g.cells, cell{key: k, n: n})
		}
		return g
	}
	cells := make([]cell, 0, len(rw.Rows))
	for _, row := range rw.Rows {
		var c cell
		var ok bool
		switch kind {
		case qJoinReason:
			if len(row) != 2 {
				return fail("join: want 2 columns, got %d", len(row))
			}
			s, _ := row[0].AsStr()
			if c.key, ok = reasonIndex[s]; !ok {
				return fail("join: unknown reason %q", s)
			}
			if c.n, ok = asInt(row[1]); !ok {
				return fail("join: bad count %v", row[1])
			}
		default:
			if len(row) != 3 {
				return fail("group-by: want 3 columns, got %d", len(row))
			}
			k, ok1 := asInt(row[0])
			n, ok2 := asInt(row[1])
			s, ok3 := asInt(row[2])
			if !ok1 || !ok2 || !ok3 {
				return fail("group-by: bad row %v", row)
			}
			c = cell{key: k, n: n, sum: s}
		}
		cells = append(cells, c)
	}
	g.summarize(cells)
	return g
}

// expected returns the exact cells the query should report for a window
// (nil tally: no events), plus the tuples that window should count.
// Top-k has no exact cells; its check is checkTopK.
func expected(q querySpec, t *winTally) (cells []cell, tuples int64) {
	if t == nil {
		return nil, 0
	}
	switch q.kind {
	case qGroupUser:
		cells = make([]cell, 0, len(t.users))
		for u, a := range t.users {
			cells = append(cells, cell{key: int64(u), n: a.n, sum: a.sumEx})
		}
		tuples = t.bids
	case qJoinReason:
		for r, n := range t.reasons {
			if n > 0 {
				cells = append(cells, cell{key: int64(r), n: n})
				tuples += n
			}
		}
	case qCampaign:
		for ex, a := range t.camp[q.param] {
			if a.n > 0 {
				cells = append(cells, cell{key: int64(ex), n: a.n, sum: a.sumLineItem})
				tuples += a.n
			}
		}
	}
	return cells, tuples
}

// nonEmpty reports whether the query should emit rows for the window.
func nonEmpty(q querySpec, t *winTally) bool {
	switch {
	case t == nil:
		return false
	case q.kind == qGroupUser || q.kind == qTopKUser:
		return t.bids > 0 // skips building the high-cardinality cells
	}
	_, n := expected(q, t)
	return n > 0
}

// checkWindow compares one received window with the tally and returns
// the tuples it counted (count(*) shapes only) or the mismatch.
func checkWindow(q querySpec, g *gotWindow, t *winTally) (got int64, err error) {
	if g.bad != "" {
		return 0, fmt.Errorf("%s", g.bad)
	}
	if g.degraded {
		return 0, fmt.Errorf("degraded window")
	}
	if q.kind == qTopKUser {
		return 0, checkTopK(g, t)
	}
	want, _ := expected(q, t)
	var w gotWindow
	w.summarize(want)
	got = g.tuples
	if g.groups != w.groups || g.tuples != w.tuples || g.digest != w.digest {
		return got, fmt.Errorf("%d groups counting %d tuples, want %d groups counting %d (digest %x, want %x)",
			g.groups, g.tuples, w.groups, w.tuples, g.digest, w.digest)
	}
	return got, nil
}

// checkTopK holds each reported count to SpaceSaving's published bound:
// trueCount ≤ reported ≤ trueCount + N/capacity, with N the window's
// bid count. The mergeable-summaries merge keeps the same bound.
func checkTopK(g *gotWindow, t *winTally) error {
	var bids int64
	nUsers := 0
	if t != nil {
		bids, nUsers = t.bids, len(t.users)
	}
	if want := min(topK, nUsers); len(g.cells) != want {
		return fmt.Errorf("top_k: %d entries, want %d", len(g.cells), want)
	}
	slack := bids / topKCapacity
	for _, c := range g.cells {
		truth := t.users[int32(c.key)].n
		if c.n < truth || c.n > truth+slack {
			return fmt.Errorf("top_k: user %d count %d outside [%d, %d]", c.key, c.n, truth, truth+slack)
		}
	}
	return nil
}
