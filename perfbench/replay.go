package main

import (
	"runtime"
	"sort"
	"time"

	"scrub/internal/central"
	"scrub/internal/transport"
)

// replayPasses is how many times each layer replays the sample; the
// median pass is reported.
const replayPasses = 5

// replayResult holds the offline per-tuple costs of each layer, measured
// single-threaded on the batches the traced run shipped.
type replayResult struct {
	tuples                                 int
	encodeNs, decodeNs, decodeAllocs, wire float64
	handleNs, handleAllocs                 float64
	applyNs, applyAllocs                   float64
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// measurePass runs pass replayPasses times and returns the median
// duration and the allocation count of the last pass. setup runs before
// each pass, outside the measurement.
func measurePass(setup func(), pass func()) (time.Duration, uint64) {
	ds := make([]time.Duration, replayPasses)
	var allocs uint64
	for i := range ds {
		setup()
		runtime.GC()
		m0 := mallocs()
		t0 := time.Now()
		pass()
		ds[i] = time.Since(t0)
		allocs = mallocs() - m0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2], allocs
}

// layerReplay replays the sampled batches through the codec, a fresh
// Engine.HandleBatch and, for the fabric, a driven Engine's ApplyDriven.
func layerReplay(samples []transport.TupleBatch, plans map[uint64]central.Plan, wire, fabric bool) replayResult {
	var r replayResult
	for _, b := range samples {
		r.tuples += len(b.Tuples)
	}
	if r.tuples == 0 {
		return r
	}
	perTuple := func(d time.Duration) float64 { return float64(d) / float64(r.tuples) }
	perTupleN := func(n uint64) float64 { return float64(n) / float64(r.tuples) }

	if wire {
		var buf []byte
		d, _ := measurePass(func() {}, func() {
			for _, b := range samples {
				buf, _ = transport.AppendEncode(buf[:0], b)
			}
		})
		r.encodeNs = perTuple(d)
		encoded := make([][]byte, len(samples))
		bytes := 0
		for i, b := range samples {
			encoded[i], _ = transport.Encode(b)
			bytes += len(encoded[i]) + 4 // frame header
		}
		r.wire = float64(bytes) / float64(r.tuples)
		d, n := measurePass(func() {}, func() {
			for _, e := range encoded {
				_, _ = transport.Decode(e)
			}
		})
		r.decodeNs, r.decodeAllocs = perTuple(d), perTupleN(n)
	}

	var eng *central.Engine
	d, n := measurePass(func() {
		eng = central.NewEngine()
		for _, p := range plans {
			_ = eng.StartQuery(p, func(transport.ResultWindow) {})
		}
	}, func() {
		for _, b := range samples {
			eng.HandleBatch(b)
		}
	})
	r.handleNs, r.handleAllocs = perTuple(d), perTupleN(n)

	if fabric {
		d, n := measurePass(func() {
			eng = central.NewEngine()
			for _, p := range plans {
				_ = eng.StartDriven(p)
			}
		}, func() {
			for _, b := range samples {
				_, _ = eng.ApplyDriven(b)
			}
		})
		r.applyNs, r.applyAllocs = perTuple(d), perTupleN(n)
	}
	return r
}
