// Command perfbench is Scrub's end-to-end, layer-by-layer benchmark.
//
// One run assembles a whole deployment from the packages' public
// constructors (hosts, transport, ScrubCentral as an Engine or a shard
// fabric, the query server and its clients), drives it with a seeded
// open-loop generator, checks every result window against an exact
// tally of what the generator logged, and prints one JSON line:
//
//	perfbench --workload engine-mix --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same
// workload untraced and then traced, and reports the per-layer metrics.
// README.md lists every metric with its layer and workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: engine-mix, fabric-mix or host-fanout")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "measured seconds per phase")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()
	w := findWorkload(*name)
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	res, err := run(w, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func run(w *workload, seed int64, seconds int, traced bool) (*result, error) {
	base, err := runPhase(w, seed, seconds, nil)
	if err != nil {
		return nil, err
	}
	report(w.name, "untraced", base)
	res := &result{Correct: base.failed == 0 && base.valid, Attempted: base.attempted, Failed: base.failed}
	if !traced {
		res.Metrics = endToEnd(base)
		return res, nil
	}
	tr := newTracer()
	tp, err := runPhase(w, seed, seconds, tr)
	if err != nil {
		return nil, err
	}
	report(w.name, "traced", tp)
	res.Correct = res.Correct && tp.failed == 0 && tp.valid
	res.Attempted += tp.attempted
	res.Failed += tp.failed
	tr.mu.Lock()
	samples, plans := tr.samples, tr.plans
	tr.mu.Unlock()
	rp := layerReplay(samples, plans, w.topo != topoInproc, w.topo == topoFabric)
	res.Metrics = perLayer(w, base, tp, tr, rp)
	path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.tsv", w.name, seed))
	if err := tr.writeSpans(path); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s (%d dropped)\n", len(tr.spans), path, tr.dropped)
	}
	return res, nil
}

// report prints a phase's checks and sample counts to stderr.
func report(workload, phase string, r *phaseResult) {
	fmt.Fprintf(os.Stderr, "perfbench: %s %s: %d events, %d windows checked, %d failed, %d lag samples (p50 %.1f ms), %d log ticks, late p99 %.2f ms, cpu %.0f ns/event\n",
		workload, phase, r.events, r.attempted, r.failed, len(r.lagMs), quantile(r.lagMs, 0.5), len(r.logNs), quantile(r.lateMs, 0.99), r.cpuNsPerEvent)
	for _, f := range r.failures {
		fmt.Fprintln(os.Stderr, "perfbench:   ", f)
	}
}

func endToEnd(r *phaseResult) map[string]metric {
	delivered := 0.0
	if r.expTuples > 0 {
		delivered = float64(r.gotTuples) / float64(r.expTuples)
	}
	return map[string]metric{
		"setup_s":               {median(r.setupS), "s"},
		"host_log_ns_p50":       {quantile(r.logNs, 0.5), "ns"},
		"host_log_ns_p90":       {quantile(r.logNs, 0.9), "ns"},
		"result_lag_ms_p50":     {quantile(r.lagMs, 0.5), "ms"},
		"result_lag_ms_p95":     {quantile(r.lagMs, 0.95), "ms"},
		"cpu_ns_per_event":      {r.cpuNsPerEvent, "ns"},
		"heap_live_mb":          {median(r.heapMB), "MB"},
		"tuples_delivered_frac": {delivered, "ratio"},
	}
}

// spanDurations returns the durations (µs) of the spans of one kind that
// started inside [from, to); from == 0 takes every span of the kind.
func spanDurations(t *tracer, kind spanKind, from, to int64) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.kind == kind && (from == 0 || (s.start >= from && s.start < to)) {
			out = append(out, float64(s.end-s.start)/1e3)
		}
	}
	return out
}

// routerSelf is each ship span's duration minus its manifest child: the
// router's split and shard round trips.
func routerSelf(t *tracer, from, to int64) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make(map[uint32]int64)
	for _, s := range t.spans {
		if s.kind == kManifest && s.parent != 0 {
			child[s.parent] += s.end - s.start
		}
	}
	var out []float64
	for _, s := range t.spans {
		if s.kind == kShip && s.start >= from && s.start < to {
			out = append(out, float64(s.end-s.start-child[s.id])/1e3)
		}
	}
	return out
}

func perLayer(w *workload, base, tp *phaseResult, t *tracer, rp replayResult) map[string]metric {
	from, to := tp.measureFrom, tp.measureTo
	m := make(map[string]metric)
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	fabric := w.topo == topoFabric

	// host
	ship := spanDurations(t, kShip, from, to)
	busy := 0.0
	for _, d := range ship {
		busy += d * 1e3
	}
	set("host.log_ns_p99", quantile(tp.logNs, 0.99), "ns")
	set("host.ship_us_p50", quantile(ship, 0.5), "us")
	set("host.ship_us_p99", quantile(ship, 0.99), "us")
	set("host.tuples_per_batch", ratio(float64(t.shipTuples.Load()), float64(t.shipCalls.Load())), "count")
	set("host.shipper_busy_frac", ratio(busy, float64(numHosts)*float64(to-from)), "ratio")
	set("host.queue_drops", float64(tp.agents.QueueDrops), "count")
	set("host.sink_errors", float64(tp.agents.SinkErrors), "count")
	set("host.start_us_p50", quantile(spanDurations(t, kStart, 0, 0), 0.5), "us")

	// transport (offline replay; no wire on host-fanout)
	set("transport.encode_ns_per_tuple", rp.encodeNs, "ns")
	set("transport.decode_ns_per_tuple", rp.decodeNs, "ns")
	set("transport.decode_allocs_per_tuple", rp.decodeAllocs, "count")
	set("transport.wire_bytes_per_tuple", rp.wire, "bytes")

	// coord (fabric-mix only; 0 elsewhere)
	var rs, man, cman, ctick []float64
	var trips, skew, collect float64
	if fabric {
		rs = routerSelf(t, from, to)
		man = spanDurations(t, kManifest, from, to)
		cman = spanDurations(t, kCoordManifest, from, to)
		ctick = spanDurations(t, kTick, from, to)
		var frames, maxB, sumB float64
		for i := range t.routerConns {
			frames += float64(t.routerConns[i].framesOut.Load())
			b := float64(t.routerConns[i].bytesOut.Load())
			maxB = max(maxB, b)
			sumB += b
		}
		trips = ratio(frames+float64(t.manifestCalls.Load()), float64(t.shipCalls.Load()))
		skew = ratio(maxB, sumB/numShards)
		var in float64
		for i := range t.coordConns {
			in += float64(t.coordConns[i].bytesIn.Load())
		}
		collect = ratio(in, float64(t.windows.Load()))
	}
	set("coord.router_send_us_p50", quantile(rs, 0.5), "us")
	set("coord.router_send_us_p99", quantile(rs, 0.99), "us")
	set("coord.router_manifest_us_p50", quantile(man, 0.5), "us")
	set("coord.router_round_trips_per_batch", trips, "count")
	set("coord.shard_bytes_skew", skew, "ratio")
	set("coord.manifest_us_p50", quantile(cman, 0.5), "us")
	set("coord.tick_us_p50", quantile(ctick, 0.5), "us")
	set("coord.tick_us_p99", quantile(ctick, 0.99), "us")
	set("coord.collect_bytes_per_window", collect, "bytes")
	set("coord.apply_ns_per_tuple", rp.applyNs, "ns")
	set("coord.apply_allocs_per_tuple", rp.applyAllocs, "count")

	// central
	var handle, tick []float64
	if !fabric {
		handle = spanDurations(t, kHandle, from, to)
		tick = spanDurations(t, kTick, from, to)
	}
	t.mu.Lock()
	emitLag := append([]float64(nil), t.emitLag...)
	deliver := append([]float64(nil), t.deliver...)
	t.mu.Unlock()
	set("central.handle_ns_per_tuple", rp.handleNs, "ns")
	set("central.handle_us_p99", quantile(handle, 0.99), "us")
	set("central.handle_allocs_per_tuple", rp.handleAllocs, "count")
	set("central.tick_us_p50", quantile(tick, 0.5), "us")
	set("central.tick_us_p99", quantile(tick, 0.99), "us")
	set("central.emit_lag_ms_p50", quantile(emitLag, 0.5), "ms")
	set("central.windows", float64(t.windows.Load()), "count")
	set("central.rows_per_window", ratio(float64(t.rows.Load()), float64(t.windows.Load())), "count")

	// server
	set("server.deliver_ms_p50", quantile(deliver, 0.5), "ms")
	set("server.deliver_ms_p99", quantile(deliver, 0.99), "ms")
	set("server.submit_ms_p50", quantile(spanDurations(t, kSubmit, 0, 0), 0.5)/1e3, "ms")
	// End-to-end measures too noisy between runs to hold to a bound:
	// taken from the untraced phase.
	set("server.query_start_ms_p50", median(base.queryStartMs), "ms")
	set("server.result_lag_ms_p99", quantile(base.lagMs, 0.99), "ms")

	// runtime (untraced phase: tracing allocates)
	set("runtime.allocs_per_event", base.allocsPerEvent, "count")
	set("runtime.gc_cpu_frac", base.gcCPUFrac, "ratio")

	// gen
	set("gen.late_ms_p99", quantile(tp.lateMs, 0.99), "ms")
	set("gen.trace_overhead_cpu_ns_per_event", tp.cpuNsPerEvent-base.cpuNsPerEvent, "ns")
	return m
}
