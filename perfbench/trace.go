package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"scrub/internal/central"
	"scrub/internal/coord"
	"scrub/internal/host"
	"scrub/internal/transport"
)

// spanKind names the layer boundary a span was recorded at.
type spanKind uint8

const (
	kShip          spanKind = iota // host: Sink.SendBatch (NetSink or Router)
	kManifest                      // coord: the router's ManifestFunc
	kHandle                        // central: Executor.HandleBatch
	kTick                          // central or coord: Executor.Tick
	kEmit                          // central: the emit callback
	kCoordManifest                 // coord: Coordinator.HandleManifest
	kStart                         // host: Agent.Start through the dispatcher
	kSubmit                        // server: Submit (in-process) or Client.Query
)

var spanNames = [...]string{"host.ship", "coord.router_manifest", "central.handle", "central.tick", "central.emit", "coord.manifest", "host.start", "server.submit"}

// span is one timed call into a layer. Spans of one batch share the
// batch key (query, host, type, first request id); parent is the span
// that caused this one (0: none known).
type span struct {
	id, parent uint32
	kind       spanKind
	typ        uint8
	host       int16
	start, end int64 // wall nanos
	query      uint64
	firstReq   uint64 // a batch's first request id; an emit's window start
	n          int64  // tuples (batches, manifests) or rows (emits)
}

// maxSpans bounds the in-memory span log; later spans are counted as
// dropped. Totals the metrics need come from exact counters instead.
const maxSpans = 1 << 19

// Replay sample bounds: batches shipped after sampleAfter into the
// measured phase are cloned until either cap is reached.
const (
	sampleAfter     = 2 * time.Second
	sampleMaxBatch  = 3000
	sampleMaxTuples = 150_000
)

// tracer records spans and counters at every layer boundary of a
// deployment. All of it lives in the benchmark: the wrappers below sit on
// the program's public surfaces, and a nil *tracer installs nothing.
type tracer struct {
	mu      sync.Mutex
	spans   []span
	dropped int
	nextID  atomic.Uint32

	hostIdx  map[string]int
	lastShip [numHosts]atomic.Uint32

	shipCalls, shipTuples atomic.Int64
	manifestCalls         atomic.Int64
	windows, rows         atomic.Int64

	routerConns [numShards]connCounter // router → shard, summed over hosts
	coordConns  [numShards]connCounter // coordinator → shard

	plans   map[uint64]central.Plan
	emitAt  map[winKey]int64
	deliver []float64 // ms: client receipt − emit callback
	emitLag []float64 // ms: emit − (window end + lateness)

	sampleFrom   atomic.Int64 // wall nanos; 0 = not sampling yet
	samples      []transport.TupleBatch
	sampleTuples int
	sampleFull   bool
}

type winKey struct {
	query uint64
	start int64
}

func newTracer() *tracer {
	return &tracer{
		hostIdx: make(map[string]int),
		plans:   make(map[uint64]central.Plan),
		emitAt:  make(map[winKey]int64),
	}
}

func (t *tracer) record(s span) {
	if s.id == 0 {
		s.id = t.nextID.Add(1)
	}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

func (t *tracer) hostOf(id string) int16 {
	if i, ok := t.hostIdx[id]; ok {
		return int16(i)
	}
	return -1
}

// shipParent is the latest ship span of a host: the call that caused a
// central-side span for that host's batch or manifest.
func (t *tracer) shipParent(h int16) uint32 {
	if h < 0 {
		return 0
	}
	return t.lastShip[h].Load()
}

func batchKey(b transport.TupleBatch) uint64 {
	if len(b.Tuples) == 0 {
		return 0
	}
	return b.Tuples[0].RequestID
}

// --- host.Sink wrapper -------------------------------------------------

type tracedSink struct {
	inner host.Sink
	t     *tracer
	h     int16
}

func (t *tracer) wrapSink(h int, s host.Sink) host.Sink {
	if t == nil {
		return s
	}
	return &tracedSink{inner: s, t: t, h: int16(h)}
}

func (s *tracedSink) SendBatch(b transport.TupleBatch) error {
	id := s.t.nextID.Add(1)
	s.t.lastShip[s.h].Store(id)
	t0 := time.Now().UnixNano()
	err := s.inner.SendBatch(b)
	t1 := time.Now().UnixNano()
	s.t.shipCalls.Add(1)
	s.t.shipTuples.Add(int64(len(b.Tuples)))
	s.t.record(span{id: id, kind: kShip, typ: b.TypeIdx, host: s.h, start: t0, end: t1,
		query: b.QueryID, firstReq: batchKey(b), n: int64(len(b.Tuples))})
	s.t.maybeSample(b, t0)
	return err
}

// maybeSample keeps a bounded, contiguous run of shipped batches for the
// offline layer replay. The Sink contract recycles batch memory when
// SendBatch returns, so each kept batch is deep-copied.
func (t *tracer) maybeSample(b transport.TupleBatch, now int64) {
	from := t.sampleFrom.Load()
	if from == 0 || now < from || len(b.Tuples) == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.sampleFull {
		return
	}
	t.samples = append(t.samples, transport.CloneBatch(b))
	t.sampleTuples += len(b.Tuples)
	t.sampleFull = len(t.samples) >= sampleMaxBatch || t.sampleTuples >= sampleMaxTuples
}

// --- coord.ManifestFunc wrapper -----------------------------------------

func (t *tracer) wrapManifest(h int, mf coord.ManifestFunc) coord.ManifestFunc {
	if t == nil {
		return mf
	}
	return func(m transport.BatchManifest) error {
		t0 := time.Now().UnixNano()
		err := mf(m)
		t1 := time.Now().UnixNano()
		t.manifestCalls.Add(1)
		t.record(span{kind: kManifest, parent: t.shipParent(int16(h)), typ: m.TypeIdx, host: int16(h),
			start: t0, end: t1, query: m.QueryID, n: int64(m.RawTuples)})
		return err
	}
}

// --- central.Executor wrapper -------------------------------------------

type tracedExec struct {
	inner central.Executor
	t     *tracer
}

// fabricSurface is the part of a distributed coordinator the query
// server detects by interface assertion; the wrapper must forward it.
type fabricSurface interface {
	QueryEpoch(id uint64) (uint32, bool)
	HandleManifest(m transport.BatchManifest)
	HandleHello(h transport.ShardHello) error
	Status() transport.ShardStatusList
	ShardMap() transport.ShardMap
}

type tracedFabric struct {
	*tracedExec
	f fabricSurface
}

func (t *tracer) wrapExecutor(e central.Executor) central.Executor {
	if t == nil {
		return e
	}
	x := &tracedExec{inner: e, t: t}
	if f, ok := e.(fabricSurface); ok {
		return &tracedFabric{tracedExec: x, f: f}
	}
	return x
}

func (x *tracedExec) StartQuery(p central.Plan, emit central.EmitFunc) error {
	x.t.mu.Lock()
	x.t.plans[p.QueryID] = p
	x.t.mu.Unlock()
	return x.inner.StartQuery(p, func(rw transport.ResultWindow) {
		t0 := time.Now().UnixNano()
		x.t.windows.Add(1)
		x.t.rows.Add(int64(len(rw.Rows)))
		x.t.mu.Lock()
		x.t.emitAt[winKey{rw.QueryID, rw.WindowStart}] = t0
		x.t.emitLag = append(x.t.emitLag, float64(t0-rw.WindowEnd-int64(lateness))/1e6)
		x.t.mu.Unlock()
		emit(rw)
		x.t.record(span{kind: kEmit, start: t0, end: time.Now().UnixNano(), query: rw.QueryID,
			firstReq: uint64(rw.WindowStart), n: int64(len(rw.Rows))})
	})
}

func (x *tracedExec) HandleBatch(b transport.TupleBatch) {
	h := x.t.hostOf(b.HostID)
	t0 := time.Now().UnixNano()
	x.inner.HandleBatch(b)
	x.t.record(span{kind: kHandle, parent: x.t.shipParent(h), typ: b.TypeIdx, host: h,
		start: t0, end: time.Now().UnixNano(), query: b.QueryID, firstReq: batchKey(b), n: int64(len(b.Tuples))})
}

func (x *tracedExec) Tick(nowNanos int64) {
	t0 := time.Now().UnixNano()
	x.inner.Tick(nowNanos)
	x.t.record(span{kind: kTick, start: t0, end: time.Now().UnixNano()})
}

func (x *tracedExec) StopQuery(id uint64) (transport.QueryStats, bool) { return x.inner.StopQuery(id) }
func (x *tracedExec) Stats(id uint64) (transport.QueryStats, bool)     { return x.inner.Stats(id) }
func (x *tracedExec) ActiveQueries() []uint64                          { return x.inner.ActiveQueries() }

func (x *tracedFabric) HandleManifest(m transport.BatchManifest) {
	h := x.t.hostOf(m.HostID)
	t0 := time.Now().UnixNano()
	x.f.HandleManifest(m)
	x.t.record(span{kind: kCoordManifest, parent: x.t.shipParent(h), typ: m.TypeIdx, host: h,
		start: t0, end: time.Now().UnixNano(), query: m.QueryID, n: int64(m.RawTuples)})
}

func (x *tracedFabric) QueryEpoch(id uint64) (uint32, bool)      { return x.f.QueryEpoch(id) }
func (x *tracedFabric) HandleHello(h transport.ShardHello) error { return x.f.HandleHello(h) }
func (x *tracedFabric) Status() transport.ShardStatusList        { return x.f.Status() }
func (x *tracedFabric) ShardMap() transport.ShardMap             { return x.f.ShardMap() }

// noteDelivery pairs a client's receipt of a window with its emit.
func (t *tracer) noteDelivery(query uint64, start, recv int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	k := winKey{query, start}
	if at, ok := t.emitAt[k]; ok {
		t.deliver = append(t.deliver, float64(recv-at)/1e6)
		delete(t.emitAt, k)
	}
}

// timeCall records a span of kind around fn (Agent.Start, Submit).
func (t *tracer) timeCall(kind spanKind, h int16, query uint64, fn func() error) error {
	if t == nil {
		return fn()
	}
	t0 := time.Now().UnixNano()
	err := fn()
	t.record(span{kind: kind, host: h, query: query, start: t0, end: time.Now().UnixNano()})
	return err
}

// --- frame- and byte-counting net.Conn ---------------------------------

type connCounter struct {
	framesOut, bytesOut, framesIn, bytesIn atomic.Int64
}

// frameCounter follows the transport's 4-byte little-endian length
// prefix through a byte stream and counts frame starts.
type frameCounter struct {
	hdr  [4]byte
	hn   int
	rest int
}

func (f *frameCounter) feed(p []byte) (frames int64) {
	for len(p) > 0 {
		if f.rest > 0 {
			k := min(f.rest, len(p))
			f.rest -= k
			p = p[k:]
			continue
		}
		k := copy(f.hdr[f.hn:], p)
		f.hn += k
		p = p[k:]
		if f.hn == len(f.hdr) {
			f.rest = int(binary.LittleEndian.Uint32(f.hdr[:]))
			f.hn = 0
			frames++
		}
	}
	return frames
}

// countingConn counts frames and bytes each way. transport.Conn writes
// under its send lock and reads from one goroutine, so each direction's
// frameCounter has a single user.
type countingConn struct {
	net.Conn
	c      *connCounter
	wf, rf frameCounter
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.c.bytesOut.Add(int64(n))
	c.c.framesOut.Add(c.wf.feed(p[:n]))
	return n, err
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.c.bytesIn.Add(int64(n))
	c.c.framesIn.Add(c.rf.feed(p[:n]))
	return n, err
}

// shardWrap returns the DialWith hook for a shard connection: nil
// untraced, else a counting wrapper on the router or coordinator side.
func (t *tracer) shardWrap(router bool, shard int) func(net.Conn) net.Conn {
	if t == nil {
		return nil
	}
	cc := &t.coordConns[shard]
	if router {
		cc = &t.routerConns[shard]
	}
	return func(nc net.Conn) net.Conn { return &countingConn{Conn: nc, c: cc} }
}

// writeSpans writes the span log as tab-separated text.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tspan\tstart_ns\tend_ns\tquery\thost\ttype\tfirst_req\tn")
	t.mu.Lock()
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n", s.id, s.parent, spanNames[s.kind],
			s.start, s.end, s.query, s.host, s.typ, s.firstReq, s.n)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
