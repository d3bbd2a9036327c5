package central

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
	"time"

	"scrub/internal/agg"
	"scrub/internal/event"
	"scrub/internal/expr"
	"scrub/internal/liveness"
	"scrub/internal/obs"
	"scrub/internal/sampling"
	"scrub/internal/stats"
	"scrub/internal/transport"
	"scrub/internal/window"
)

// EmitFunc receives each closed window's results. It is called with the
// merger lock held; implementations must be fast (enqueue and return).
type EmitFunc func(transport.ResultWindow)

// Options tunes an engine's failure-domain behavior. The zero value is
// production-ready.
type Options struct {
	// LeaseTTL is the per-stream liveness lease timeout: a (host, type)
	// stream that neither ships a batch nor heartbeats for this long is
	// evicted from the query watermark so windows keep closing without
	// it. <= 0 selects liveness.DefaultTTL.
	LeaseTTL time.Duration
	// Clock substitutes time.Now for lease bookkeeping (tests). Lease
	// time is deliberately wall-clock, independent of event time, so
	// virtual-time simulations cannot spuriously evict healthy streams.
	Clock func() time.Time
	// Metrics, when non-nil, registers the engine's scrub_central_*
	// series, including a per-query tuple counter added at StartQuery and
	// removed at StopQuery. In-process shards add the tuples they hold
	// for a join partner to its scrub_central_join_pending gauge.
	Metrics *obs.Registry
}

// centralMetrics bundles the engine's registered series; a nil
// *centralMetrics (no registry configured) costs one pointer check per
// batch.
type centralMetrics struct {
	reg      *obs.Registry
	batches  *obs.Counter
	tuples   *obs.Counter
	windows  *obs.Counter
	degraded *obs.Counter
	shed     *obs.Counter
	closeNs  *obs.Histogram
	wmLag    *obs.Gauge
}

func newCentralMetrics(reg *obs.Registry) *centralMetrics {
	if reg == nil {
		return nil
	}
	return &centralMetrics{
		reg:      reg,
		batches:  reg.Counter("scrub_central_batches_total", "tuple batches ingested"),
		tuples:   reg.Counter("scrub_central_tuples_total", "tuples ingested"),
		windows:  reg.Counter("scrub_central_windows_total", "result windows emitted"),
		degraded: reg.Counter("scrub_central_degraded_windows_total", "windows emitted with at least one evicted stream"),
		shed:     reg.Counter("scrub_central_shed_windows_total", "windows emitted with at least one budget-shed stream"),
		closeNs:  reg.Histogram("scrub_central_window_close_ns", "window render-and-emit latency in nanoseconds", obs.ExpBuckets(1024, 4, 12)),
		wmLag:    reg.Gauge("scrub_central_watermark_lag_ns", "wall clock minus the query watermark at last ingest"),
	}
}

const queryLabel = "query"

func (m *centralMetrics) queryTuples(id uint64) *obs.Counter {
	if m == nil {
		return nil
	}
	return m.reg.Counter("scrub_central_query_tuples_total",
		"tuples ingested per query", obs.L(queryLabel, strconv.FormatUint(id, 10)))
}

func (m *centralMetrics) dropQuery(id uint64) {
	if m == nil {
		return
	}
	m.reg.Unregister("scrub_central_query_tuples_total", obs.L(queryLabel, strconv.FormatUint(id, 10)))
}

func (o *Options) fillDefaults() {
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = liveness.DefaultTTL
	}
	if o.Clock == nil {
		o.Clock = time.Now
	}
}

// Engine executes the central half of Scrub queries: windowing, the
// request-id equi-join, grouping, aggregation, sampling scale-up, and
// error bounds. It is the single-node ScrubCentral: a Merger over one
// LocalShard of the engine's own driven state. The Merger supplies the
// Executor surface (HandleBatch, Tick, StopQuery, Stats, ActiveQueries)
// and the only close path; the driven state below (partial.go) holds
// the windows and never closes one on its own.
//
// Lock order: the merger's lock, then the engine's; the driven methods
// never call back into the merger.
type Engine struct {
	*Merger

	joinPending *obs.Gauge // nil without a registry
	mu          sync.Mutex
	queries     map[uint64]*queryState
}

// NewEngine returns an empty engine with default Options.
func NewEngine() *Engine { return NewEngineWith(Options{}) }

// NewEngineWith returns an empty engine with the given Options.
func NewEngineWith(opt Options) *Engine {
	e := newDrivenEngine(opt.Metrics)
	e.Merger = NewMerger(opt)
	return e
}

// newDrivenEngine returns an engine with driven state only, for use as an
// in-process shard.
func newDrivenEngine(reg *obs.Registry) *Engine {
	e := &Engine{queries: make(map[uint64]*queryState)}
	if reg != nil {
		// Registry.Gauge is get-or-create: in-process shards share, and so
		// sum into, the one series.
		e.joinPending = reg.Gauge("scrub_central_join_pending", "tuples buffered awaiting their join partner")
	}
	return e
}

// StartQuery implements Executor.
func (e *Engine) StartQuery(p Plan, emit EmitFunc) error {
	return e.Start(p, emit, []ShardHandle{LocalShard{Engine: e}})
}

// queryState is a driven query: its plan, window state and drop and
// ingest counters. Stream accounting, the watermark and closing live at
// the merger.
type queryState struct {
	plan     Plan // post-defaults, with the driven lateness
	comp     *compiled
	win      *window.SlidingManager[*winState]
	overflow uint64 // raw-row + join-pending drops
	tuplesIn uint64
	// Per-tuple evaluation scratch, reused across every tuple (the engine
	// lock is held throughout a batch, so one set per query suffices):
	// the row adapters evaluators see, the group-by key values and the
	// group-map key they encode to. Only a tuple that opens a new group
	// copies them.
	side    sideRow
	join    joinRow
	keyVals []event.Value
	keyBuf  []byte
}

type group struct {
	keyVals []event.Value
	aggs    []agg.Aggregator
}

// joinCell holds one request id's buffered tuples: per side, the head of
// a chain in arrival order (nil when the side is empty). Cells are
// stored by value; the chained tuples live in the window's slabs. A
// request's chains are short (its few events of each type), so
// appending walks the chain rather than keep a tail per side.
type joinCell struct {
	head [2]*pendingTuple
}

// pendingTuple is one buffered join tuple. Its Values live in the
// window's value slab: the batch's own arrays are recycled by the host
// (see host.Sink) or the decoder once the call returns.
type pendingTuple struct {
	tuple transport.Tuple
	next  *pendingTuple // next on the same side of the same cell
}

func newWinState() *winState {
	return &winState{
		hosts:   make(map[string]struct{}),
		groups:  make(map[string]*group),
		pending: make(map[uint64]joinCell),
		perHost: make(map[string][]stats.Running),
	}
}

type winState struct {
	tuples       uint64
	hosts        map[string]struct{}
	groups       map[string]*group
	rawRows      [][]event.Value
	pending      map[uint64]joinCell
	pendingCount int
	// perHost tracks per-host reading moments per aggregate for the
	// Eq. 1–3 error bounds; only maintained for ungrouped scalable
	// aggregates under sampling.
	perHost map[string][]stats.Running

	// Slabs for everything the window retains past a batch: groups, their
	// key values and aggregator slots, raw rows, join-buffered tuples and
	// their values, and per-host moments. They live exactly as long as
	// the window.
	groupSlab  slab[group]
	aggSlab    slab[agg.Aggregator]
	valSlab    slab[event.Value]
	pendSlab   slab[pendingTuple]
	momentSlab slab[stats.Running]
}

// prepare fills a plan's defaults and compiles it. Aggregator specs are
// validated up front so a bad plan fails at start, not at the first
// tuple.
func (p *Plan) prepare() (*compiled, error) {
	if err := p.fillDefaults(); err != nil {
		return nil, err
	}
	comp, err := compile(p)
	if err != nil {
		return nil, fmt.Errorf("central: compile plan: %w", err)
	}
	if _, err := p.newAggSet(); err != nil {
		return nil, err
	}
	return comp, nil
}

// applyLocked runs a batch's tuples through the span filter, window
// routing, join and accumulation, and reports what it observed: the max
// in-span event time and the query's late and overflow drop counters.
// It allocates nothing per tuple once the window's groups, join cells
// and slab chunks exist; the batch's memory is not retained past the
// call (DESIGN.md §9).
//
//scrub:hotpath
func (e *Engine) applyLocked(qs *queryState, b transport.TupleBatch) transport.ShardBatchAck {
	lateBefore := qs.win.LateDrops()
	dataStart := qs.plan.DataStartNanos()
	ack := transport.ShardBatchAck{Known: true}
	for i := range b.Tuples {
		t := &b.Tuples[i]
		if dataStart != 0 && t.TsNanos < dataStart {
			continue
		}
		if qs.plan.EndNanos != 0 && t.TsNanos >= qs.plan.EndNanos {
			continue
		}
		for _, ws := range qs.win.GetAll(t.TsNanos) {
			e.processTuple(qs, ws, b.HostID, b.TypeIdx, t)
		}
		if !ack.HasTs || t.TsNanos > ack.MaxTs {
			//scrub:allowretain(scalar int64 copy; no pooled memory escapes)
			ack.MaxTs = t.TsNanos
			ack.HasTs = true
		}
	}
	// The rows must not keep the batch reachable once it is handed back.
	qs.side.tuple, qs.join.left, qs.join.right = nil, nil, nil
	ack.LateDelta = qs.win.LateDrops() - lateBefore
	ack.Late = qs.win.LateDrops()
	ack.Overflow = qs.overflow
	return ack
}

// processTuple routes one in-window tuple through join (if any), the
// residual predicate, and accumulation.
func (e *Engine) processTuple(qs *queryState, ws *winState, host string, typeIdx uint8, t *transport.Tuple) {
	ws.tuples++
	qs.tuplesIn++
	ws.hosts[host] = struct{}{}

	if !qs.plan.IsJoin() {
		row := &qs.side
		row.typeIdx, row.tuple = int(typeIdx), t
		if qs.comp.centralPred != nil && !qs.comp.centralPred(row) {
			return
		}
		e.accumulate(qs, ws, row, host)
		return
	}

	// Equi-join on the request identifier, within the window.
	cell := ws.pending[t.RequestID]
	other := 1 - int(typeIdx)
	row := &qs.join
	for pt := cell.head[other]; pt != nil; pt = pt.next {
		if typeIdx == 0 {
			row.left, row.right = t, &pt.tuple
		} else {
			row.left, row.right = &pt.tuple, t
		}
		if qs.comp.centralPred != nil && !qs.comp.centralPred(row) {
			continue
		}
		e.accumulate(qs, ws, row, host)
	}
	if ws.pendingCount >= qs.plan.MaxJoinPending {
		qs.overflow++
		return
	}
	// The batch's Values arrays are recycled once this call returns (see
	// host.Sink), so a retained tuple's values are copied into the
	// window's slab.
	pt := &ws.pendSlab.take(1)[0]
	pt.tuple = transport.Tuple{RequestID: t.RequestID, TsNanos: t.TsNanos, Values: ws.valSlab.clone(t.Values)}
	link := &cell.head[typeIdx]
	for *link != nil {
		link = &(*link).next
	}
	*link = pt
	ws.pending[t.RequestID] = cell // a new cell may grow the map
	ws.pendingCount++
	if e.joinPending != nil {
		e.joinPending.Add(1)
	}
}

// accumulate folds a (possibly joined) row into the window's groups, or
// collects it as a raw result row for non-aggregate queries.
func (e *Engine) accumulate(qs *queryState, ws *winState, row expr.Row, host string) {
	p := &qs.plan
	if !p.HasAgg() && !p.Grouped() {
		if len(ws.rawRows) >= p.MaxRawRows {
			qs.overflow++
			return
		}
		out := ws.valSlab.take(len(qs.comp.selectEvals))
		for i, ev := range qs.comp.selectEvals {
			out[i] = ev(row)
		}
		ws.rawRows = append(ws.rawRows, out)
		return
	}

	// The group is found by its encoded key without building a string;
	// only a new group materializes one.
	qs.keyBuf = qs.keyBuf[:0]
	for i, ev := range qs.comp.groupEvals {
		qs.keyVals[i] = ev(row)
		qs.keyBuf = event.AppendValue(qs.keyBuf, qs.keyVals[i])
	}
	g := ws.groups[string(qs.keyBuf)]
	if g == nil {
		g = newGroup(qs, ws)
	}
	for i, ag := range g.aggs {
		if qs.comp.aggArgEvals[i] == nil {
			ag.Add(event.Bool(true)) // COUNT(*): any valid value
		} else {
			ag.Add(qs.comp.aggArgEvals[i](row))
		}
	}

	// Error-bound moments: ungrouped scalable aggregates. Collected even
	// at plan rate 1, because the host-side budget governor can lower a
	// host's effective sampling rate mid-query — and by the time the
	// first deviating batch announces that, the window's earlier tuples
	// are gone. Grouped queries have no moment tracking (bounds are
	// per-column, not per-group); their degradation is surfaced via
	// per-stream EffRate instead.
	if !p.Grouped() && len(p.Aggs) > 0 {
		moments := ws.perHost[host]
		if moments == nil {
			moments = ws.momentSlab.take(len(p.Aggs))
			ws.perHost[host] = moments
		}
		for i, a := range p.Aggs {
			if !a.Spec.Scalable() {
				continue
			}
			if qs.comp.aggArgEvals[i] == nil {
				moments[i].Add(1) // COUNT(*): reading of 1
			} else if f, ok := qs.comp.aggArgEvals[i](row).AsFloat(); ok {
				moments[i].Add(f)
			}
		}
	}
}

// newGroup opens the group keyed by the query's current key scratch,
// carving its state from the window's slabs.
//
//scrub:allowalloc(new group: key string, aggregators and map growth, once per group per window)
func newGroup(qs *queryState, ws *winState) *group {
	g := &ws.groupSlab.take(1)[0]
	g.keyVals = ws.valSlab.clone(qs.keyVals)
	g.aggs = ws.aggSlab.take(len(qs.plan.Aggs))
	_ = qs.plan.fillAggs(g.aggs) // validated at StartQuery; cannot fail
	ws.groups[string(qs.keyBuf)] = g
	return g
}

// renderWindow turns a closed window's accumulated state into result
// rows: group ordering, aggregate rendering with Horvitz-Thompson
// scale-up, HAVING, error bounds, ORDER BY and LIMIT. Its one caller is
// the Merger's emit.
//
// rates, when non-nil, maps hosts to governor-degraded effective
// event-sampling rates (liveness.Table.RatesByHost): the window is then
// approximate even at plan rate 1, and ungrouped scalable aggregates are
// re-estimated from the per-host moments with each host's own rate
// (Eq. 1–3) instead of the uniform plan-rate scale-up, so budget
// downsampling widens the bounds rather than silently skewing values.
func renderWindow(p *Plan, comp *compiled, start, end int64, ws *winState, rates map[string]float64) transport.ResultWindow {
	rw := transport.ResultWindow{
		QueryID:     p.QueryID,
		WindowStart: start,
		WindowEnd:   end,
		Columns:     p.ColumnLabels(),
	}

	factor := p.scaleFactor()
	rw.Approx = factor != 1 || len(rates) > 0

	switch {
	case !p.HasAgg() && !p.Grouped():
		rw.Rows = ws.rawRows

	default:
		// Deterministic group order: sort by encoded key.
		keys := make([]string, 0, len(ws.groups))
		for k := range ws.groups {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		// An ungrouped aggregate query emits one row even for an empty
		// window (COUNT(*) = 0), matching SQL semantics.
		if len(keys) == 0 && p.HasAgg() && !p.Grouped() {
			if aggs, err := p.newAggSet(); err == nil {
				ws.groups[""] = &group{aggs: aggs}
				keys = append(keys, "")
			}
		}
		var bounds []float64
		var sums map[int]float64
		row := &resultRow{groupBy: p.GroupBy}
		if rw.Approx && !p.Grouped() {
			bounds, sums = computeBounds(p, comp, ws, rates)
		}
		for _, k := range keys {
			g := ws.groups[k]
			aggVals := make([]event.Value, len(g.aggs))
			for i, ag := range g.aggs {
				v := ag.Result()
				if p.Aggs[i].Spec.Scalable() {
					if est, ok := sums[i]; ok {
						v = substituteEstimate(v, est)
					} else {
						v = agg.ScaleResult(v, factor)
					}
				}
				aggVals[i] = v
			}
			row.keyVals, row.aggVals = g.keyVals, aggVals
			if comp.havingPred != nil && !comp.havingPred(row) {
				continue
			}
			out := make([]event.Value, len(comp.selectEvals))
			for i, ev := range comp.selectEvals {
				out[i] = ev(row)
			}
			rw.Rows = append(rw.Rows, out)
		}
		rw.ErrBounds = bounds
	}
	orderAndLimit(p, &rw)
	rw.Stats.TuplesIn = ws.tuples
	rw.Stats.HostsReporting = uint32(len(ws.hosts))
	return rw
}

// computeBounds applies the paper's Eq. 1–3 per select column. Only
// columns that are directly a scalable aggregate get a bound; others are
// NaN. Per-host cluster sizes Mᵢ are estimated as mᵢ/qᵢ when event
// sampling is in effect (the host's exact matched totals are cumulative
// across windows, so the per-window Mᵢ is recovered from the sampling
// rate); qᵢ is the host's governor-degraded effective rate when rates
// carries one, else the uniform plan rate.
//
// When rates is non-nil (at least one host deviates from the plan rate),
// the returned sums map also carries the Eq. 1 point estimate τ̂ per
// aggregate index: the caller substitutes it for the uniform scale-up,
// which would be biased by the unequal per-host rates.
func computeBounds(p *Plan, comp *compiled, ws *winState, rates map[string]float64) ([]float64, map[int]float64) {
	bounds := make([]float64, len(p.Select))
	for i := range bounds {
		bounds[i] = math.NaN()
	}
	var sums map[int]float64
	// Host order must be fixed before the float sums inside the estimator:
	// map iteration order would otherwise make ε differ between runs (and
	// between Engine and ShardedEngine) by float-addition rounding.
	hostIDs := make([]string, 0, len(ws.perHost))
	for host := range ws.perHost {
		hostIDs = append(hostIDs, host)
	}
	sort.Strings(hostIDs)
	for col, aggIdx := range comp.directAgg {
		if aggIdx < 0 || !p.Aggs[aggIdx].Spec.Scalable() {
			continue
		}
		hosts := make([]sampling.HostMoments, 0, len(hostIDs))
		for _, host := range hostIDs {
			r := ws.perHost[host][aggIdx]
			if r.N() == 0 {
				continue
			}
			rate := p.SampleEvents
			if hr, ok := rates[host]; ok && hr > 0 && hr < rate {
				rate = hr
			}
			m := uint64(math.Round(float64(r.N()) / rate))
			if m < uint64(r.N()) {
				m = uint64(r.N())
			}
			hosts = append(hosts, sampling.HostMoments{
				HostID: host, M: m, N: r.N(), Sum: r.Sum(), Var: r.Var(),
				// Mᵢ above is mᵢ/q, not an exact per-window count: the
				// hosts' matched totals are cumulative across windows. The
				// estimator must widen the within-host term accordingly.
				EstimatedM: rate < 1,
			})
		}
		if len(hosts) == 0 {
			continue
		}
		total := p.TotalHosts
		if total < len(hosts) {
			total = len(hosts)
		}
		est, err := sampling.EstimateSumMoments(total, hosts, p.Confidence)
		if err != nil {
			continue
		}
		bounds[col] = est.Err
		if rates != nil {
			if sums == nil {
				sums = make(map[int]float64, len(p.Aggs))
			}
			sums[aggIdx] = est.Value
		}
	}
	return bounds, sums
}

// substituteEstimate replaces a scalable aggregate's direct result with
// the moments-based estimate, preserving the result's numeric kind the
// way agg.ScaleResult does.
func substituteEstimate(orig event.Value, est float64) event.Value {
	if _, ok := orig.AsInt(); ok {
		return event.Int(int64(math.Round(est)))
	}
	return event.Float(est)
}

// orderAndLimit applies the plan's ORDER BY keys and LIMIT to an emitted
// window's rows. The order is total and deterministic: incomparable
// values fall back to their string forms, equal ORDER BY keys tie-break
// on the full row, and raw rows without ORDER BY sort canonically —
// arrival order differs between the single-node engine and a sharded
// merge, so a LIMIT cut must never depend on it.
func orderAndLimit(p *Plan, rw *transport.ResultWindow) {
	if len(p.OrderBy) > 0 {
		sort.Slice(rw.Rows, func(i, j int) bool {
			return compareOrdered(p, rw.Rows[i], rw.Rows[j]) < 0
		})
	} else if !p.HasAgg() && !p.Grouped() {
		sort.Slice(rw.Rows, func(i, j int) bool {
			return compareRows(rw.Rows[i], rw.Rows[j]) < 0
		})
	}
	if p.Limit > 0 && len(rw.Rows) > p.Limit {
		rw.Rows = rw.Rows[:p.Limit]
	}
}

// compareOrdered orders two result rows by the plan's ORDER BY keys,
// falling back to the full row on ties so equal sort keys cannot order
// differently between runs (or between Engine and ShardedEngine).
func compareOrdered(p *Plan, a, b []event.Value) int {
	for _, key := range p.OrderBy {
		if key.Col >= len(a) || key.Col >= len(b) {
			continue
		}
		c := compareValues(a[key.Col], b[key.Col])
		if c == 0 {
			continue
		}
		if key.Desc {
			return -c
		}
		return c
	}
	return compareRows(a, b)
}

func compareStrings(a, b string) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// mergeWinStates folds src into dst: groups merge through the mergeable
// aggregators, raw rows concatenate (bounded), per-host moments combine,
// and counters add. Join pending state is irrelevant post-close — shards
// route by request id, so both sides of a request land on one shard and
// were joined there. The return value counts raw rows dropped because
// the merged window hit MaxRawRows; callers fold it into their overflow
// accounting so bounded-memory truncation is never silent.
func mergeWinStates(p *Plan, dst, src *winState) (dropped uint64) {
	dst.tuples += src.tuples
	for h := range src.hosts {
		dst.hosts[h] = struct{}{}
	}
	for key, sg := range src.groups {
		dg, ok := dst.groups[key]
		if !ok {
			dst.groups[key] = sg
			continue
		}
		for i := range dg.aggs {
			// Same plan, same spec order; Merge errors only on kind
			// mismatch, impossible here.
			_ = dg.aggs[i].Merge(sg.aggs[i])
		}
	}
	room := p.MaxRawRows - len(dst.rawRows)
	if room < 0 {
		room = 0
	}
	if len(src.rawRows) > room {
		dropped = uint64(len(src.rawRows) - room)
		src.rawRows = src.rawRows[:room]
	}
	dst.rawRows = append(dst.rawRows, src.rawRows...)
	for host, sm := range src.perHost {
		dm, ok := dst.perHost[host]
		if !ok {
			dst.perHost[host] = sm
			continue
		}
		for i := range dm {
			dm[i].Merge(sm[i])
		}
		dst.perHost[host] = dm
	}
	return dropped
}
