package main

import (
	"fmt"
	"sync"
	"time"

	"scrub/internal/host"
	"scrub/internal/transport"
)

const (
	// setupReps deployments are built per run: setup_s is the median of
	// their set-up times, and the last one is measured.
	setupReps = 21
	// tail keeps traffic flowing after the measured phase for longer than
	// the lateness, so every measured window closes by watermark, as it
	// does in steady state, rather than by the wall-clock force bound.
	tail = lateness + 500*time.Millisecond
	// drainTimeout bounds the wait for the last windows after traffic
	// stops (they close on the force bound: lateness plus a tick).
	drainTimeout = lateness + 3*time.Second
	// missMargin: a cancelled query must have delivered every window that
	// ended this long before lateness ran out ahead of the cancel.
	missMargin = time.Second
	// probeStarts extra queries are submitted and cancelled on the
	// measured deployment before traffic starts, so that
	// server.query_start_ms_p50 rests on more than the few standing
	// queries of a workload without rotation.
	probeStarts = 32
	// heapEvery is the heap_live_mb sampling period.
	heapEvery = 100 * time.Millisecond
	// maxLateMs: a run whose generator started its p99 tick later than
	// this behind schedule is invalid, not slow.
	maxLateMs = 50.0
)

// liveQuery is one query as the benchmark's client sees it.
type liveQuery struct {
	spec       querySpec
	stop       func() // cancels the query; returns once its stream ended
	activeFrom int64  // wall nanos: every host had installed it
	cancelAt   int64  // wall nanos the rotation cancelled it; 0 = final drain

	mu   sync.Mutex
	wins []gotWindow
}

func (lq *liveQuery) received() []gotWindow {
	lq.mu.Lock()
	defer lq.mu.Unlock()
	return append([]gotWindow(nil), lq.wins...)
}

// newest returns the start of the newest window received so far.
func (lq *liveQuery) newest() int64 {
	lq.mu.Lock()
	defer lq.mu.Unlock()
	n := int64(-1)
	for _, g := range lq.wins {
		n = max(n, g.start)
	}
	return n
}

func startQuery(d *deployment, spec querySpec, tr *tracer) (*liveQuery, float64, error) {
	lq := &liveQuery{spec: spec}
	on := func(rw transport.ResultWindow, recv int64) {
		g := compactWindow(spec.kind, rw, recv)
		lq.mu.Lock()
		lq.wins = append(lq.wins, g)
		lq.mu.Unlock()
		tr.noteDelivery(rw.QueryID, rw.WindowStart, recv)
	}
	t0 := time.Now()
	stop, err := d.start(spec.text, on)
	if err != nil {
		return nil, 0, err
	}
	lq.stop = stop
	lq.activeFrom = time.Now().UnixNano()
	return lq, float64(time.Since(t0)) / 1e6, nil
}

func stopAll(qs []*liveQuery) {
	for _, q := range qs {
		q.stop()
	}
}

// phaseResult is what one measured phase observed.
type phaseResult struct {
	setupS       []float64
	queryStartMs []float64
	logNs        []float64
	lateMs       []float64
	lagMs        []float64
	heapMB       []float64

	cpuNsPerEvent  float64
	allocsPerEvent float64
	gcCPUFrac      float64
	events         uint64

	expTuples, gotTuples int64
	attempted, failed    int
	failures             []string
	valid                bool

	// windows holds, per standing query in workload order, the windows it
	// received, with starts made relative to the generator's start.
	windows [][]gotWindow

	agents      host.Stats
	measureFrom int64
	measureTo   int64
}

func (r *phaseResult) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// runPhase builds the workload's deployment, drives it for seconds of
// measured traffic and checks every result window against the tally.
func runPhase(w *workload, seed int64, seconds int, tr *tracer) (*phaseResult, error) {
	cat := newCatalog()
	res := &phaseResult{}
	var d *deployment
	var live []*liveQuery
	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		dd, err := deploy(w.topo, cat, tr, rep == setupReps-1)
		if err != nil {
			return nil, err
		}
		var qs []*liveQuery
		for _, spec := range w.queries {
			lq, ms, err := startQuery(dd, spec, tr)
			if err != nil {
				stopAll(qs)
				dd.close()
				return nil, err
			}
			res.queryStartMs = append(res.queryStartMs, ms)
			qs = append(qs, lq)
		}
		res.setupS = append(res.setupS, (time.Since(t0) - dd.aligned).Seconds())
		if rep < setupReps-1 {
			stopAll(qs)
			dd.close()
			continue
		}
		d, live = dd, qs
	}
	for i := 0; i < probeStarts && w.rotateEvery == 0; i++ {
		p, ms, err := startQuery(d, w.queries[i%len(w.queries)], tr)
		if err != nil {
			stopAll(live)
			d.close()
			return nil, err
		}
		p.stop()
		res.queryStartMs = append(res.queryStartMs, ms)
	}
	stopped := false
	defer func() {
		if !stopped {
			stopAll(live)
		}
		d.close()
	}()

	win := int64(w.window)
	start := (time.Now().Add(100*time.Millisecond).UnixNano()/win + 1) * win
	measureEnd := start + int64(seconds)*int64(time.Second)
	sch := schedule{
		seed:       seed,
		reqPerSec:  w.reqPerSec,
		start:      time.Unix(0, start),
		measureEnd: time.Unix(0, measureEnd),
		stop:       time.Unix(0, measureEnd+int64(tail)),
	}
	res.measureFrom, res.measureTo = start, measureEnd
	gen := newGenerator(sch, d.agents)
	if tr != nil {
		tr.sampleFrom.Store(start + int64(sampleAfter))
	}
	genDone := make(chan struct{})
	go func() {
		defer close(genDone)
		gen.run()
	}()

	var retired []*liveQuery
	rotErr := func() error {
		time.Sleep(time.Until(sch.start))
		cpu0, ev0, rt0 := cpuTime(), gen.events(), readRuntime()
		nextHeap, nextRot, rot := start, start+int64(w.rotateEvery), 0
		for {
			now := time.Now().UnixNano()
			if now >= measureEnd {
				break
			}
			if now >= nextHeap {
				res.heapMB = append(res.heapMB, readRuntime().heapLive/(1<<20))
				nextHeap += int64(heapEvery)
			}
			next := min(nextHeap, measureEnd)
			if w.rotateEvery > 0 {
				if now >= nextRot {
					old := live[rot]
					old.cancelAt = time.Now().UnixNano()
					old.stop()
					retired = append(retired, old)
					lq, ms, err := startQuery(d, old.spec, tr)
					if err != nil {
						live = append(live[:rot], live[rot+1:]...)
						return fmt.Errorf("rotation submit: %w", err)
					}
					res.queryStartMs = append(res.queryStartMs, ms)
					live[rot] = lq
					rot = (rot + 1) % len(live)
					nextRot += int64(w.rotateEvery)
				}
				next = min(next, nextRot)
			}
			time.Sleep(time.Duration(next - time.Now().UnixNano()))
		}
		cpu1, ev1, rt1 := cpuTime(), gen.events(), readRuntime()
		res.events = ev1 - ev0
		if res.events > 0 {
			res.cpuNsPerEvent = float64(cpu1-cpu0) / float64(res.events)
			res.allocsPerEvent = (rt1.allocs - rt0.allocs) / float64(res.events)
		}
		if dt := rt1.totalCPU - rt0.totalCPU; dt > 0 {
			res.gcCPUFrac = (rt1.gcCPU - rt0.gcCPU) / dt
		}
		return nil
	}()
	<-genDone
	if rotErr != nil {
		return nil, rotErr
	}
	for _, a := range d.agents {
		a.Flush()
	}

	for i := range gen.out {
		res.logNs = append(res.logNs, gen.out[i].logNs...)
		for _, l := range gen.out[i].lateNs {
			res.lateMs = append(res.lateMs, l/1e6)
		}
	}
	res.valid = quantile(res.lateMs, 0.99) <= maxLateMs
	t := buildTally(sch, w.window, w.topo != topoInproc)

	// Drain: wait for each query's last window to close.
	lastWant := make([]int64, len(live))
	for i, q := range live {
		lastWant[i] = -1
		for ws, wt := range t {
			if ws >= q.activeFrom && nonEmpty(q.spec, wt) {
				lastWant[i] = max(lastWant[i], ws)
			}
		}
	}
	deadline := time.Now().Add(drainTimeout)
	for time.Now().Before(deadline) {
		done := true
		for i, q := range live {
			done = done && q.newest() >= lastWant[i]
		}
		if done {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	stopAll(live)
	stopped = true
	for _, a := range d.agents {
		s := a.Stats()
		res.agents.QueueDrops += s.QueueDrops
		res.agents.SinkErrors += s.SinkErrors
	}

	for _, q := range append(retired, live...) {
		res.checkQuery(q, t, w.window, sch)
	}
	for _, q := range live {
		ws := q.received()
		for i := range ws {
			ws[i].start -= start
			ws[i].end -= start
		}
		res.windows = append(res.windows, ws)
	}
	if !res.valid {
		res.failures = append(res.failures, fmt.Sprintf("generator fell behind: late p99 %.1f ms > %.0f ms", quantile(res.lateMs, 0.99), maxLateMs))
	}
	return res, nil
}

// checkQuery compares a query's windows with the tally, counts tuples
// for tuples_delivered_frac and collects result-lag samples.
func (r *phaseResult) checkQuery(q *liveQuery, t tally, window time.Duration, sch schedule) {
	win := int64(window)
	from := (q.activeFrom + win - 1) / win * win
	seen := make(map[int64]bool)
	for _, g := range q.received() {
		if q.cancelAt != 0 && g.recv >= q.cancelAt {
			continue // flushed by the cancel, not closed by the system
		}
		if g.start >= sch.start.UnixNano() && g.end <= sch.measureEnd.UnixNano() {
			r.lagMs = append(r.lagMs, float64(g.recv-g.end-int64(lateness))/1e6)
		}
		if g.start < from {
			continue // opened before every host had the query installed
		}
		if seen[g.start] {
			r.attempted++
			r.fail("%q: window %d delivered twice", q.spec.text, g.start)
			continue
		}
		seen[g.start] = true
		wt := t[g.start]
		_, exp := expected(q.spec, wt)
		got, err := checkWindow(q.spec, &g, wt)
		r.attempted++
		r.expTuples += exp
		r.gotTuples += got
		if err != nil {
			r.fail("%q window %d: %v", q.spec.text, g.start, err)
		}
	}
	for ws, wt := range t {
		if ws < from || seen[ws] || !nonEmpty(q.spec, wt) {
			continue
		}
		if q.cancelAt != 0 && ws+win+int64(lateness)+int64(missMargin) > q.cancelAt {
			continue // may legitimately still have been open at the cancel
		}
		_, exp := expected(q.spec, wt)
		r.attempted++
		r.expTuples += exp
		r.fail("%q: window %d missing", q.spec.text, ws)
	}
}
