package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// smokeSeconds is the measured length of each self-test phase.
const smokeSeconds = 2

func checkPhase(t *testing.T, name string, r *phaseResult) {
	t.Helper()
	for _, f := range r.failures {
		t.Errorf("%s: %s", name, f)
	}
	if r.failed != 0 || !r.valid {
		t.Fatalf("%s: %d of %d windows failed (valid=%v)", name, r.failed, r.attempted, r.valid)
	}
	if r.attempted == 0 || r.expTuples == 0 || r.gotTuples != r.expTuples {
		t.Fatalf("%s: checked %d windows, delivered %d of %d tuples", name, r.attempted, r.gotTuples, r.expTuples)
	}
	if len(r.lagMs) == 0 || len(r.logNs) == 0 || r.cpuNsPerEvent <= 0 || len(r.setupS) != setupReps {
		t.Fatalf("%s: missing samples: lag %d, log %d, cpu %v, setups %d", name, len(r.lagMs), len(r.logNs), r.cpuNsPerEvent, len(r.setupS))
	}
}

// TestSmoke runs every workload for a couple of seconds and holds it to
// the same result check a benchmark run applies.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			r, err := runPhase(w, 7, smokeSeconds, nil)
			if err != nil {
				t.Fatal(err)
			}
			checkPhase(t, w.name, r)
			m := endToEnd(r)
			for name, v := range m {
				if v.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v", name, v.Value)
				}
			}
		})
	}
}

// TestTracingIsTransparent runs one seed untraced and traced: the wrapped
// deployment must emit exactly the same group-by and join windows. Top-k
// windows depend on tuple arrival order inside the SpaceSaving sketch, so
// for them both runs are held to the sketch's error bound instead, which
// the result check already does.
func TestTracingIsTransparent(t *testing.T) {
	for _, name := range []string{"engine-mix", "fabric-mix"} {
		t.Run(name, func(t *testing.T) {
			w := findWorkload(name)
			plain, err := runPhase(w, 3, smokeSeconds, nil)
			if err != nil {
				t.Fatal(err)
			}
			checkPhase(t, "untraced", plain)
			tr := newTracer()
			traced, err := runPhase(w, 3, smokeSeconds, tr)
			if err != nil {
				t.Fatal(err)
			}
			checkPhase(t, "traced", traced)
			if tr.shipCalls.Load() == 0 || tr.windows.Load() == 0 {
				t.Fatalf("tracer saw %d batches, %d windows", tr.shipCalls.Load(), tr.windows.Load())
			}
			for i, q := range w.queries {
				if q.kind == qTopKUser {
					continue
				}
				a, b := comparable(plain.windows[i]), comparable(traced.windows[i])
				if len(a) == 0 || !reflect.DeepEqual(a, b) {
					t.Errorf("%q: untraced %d windows, traced %d windows, contents differ", q.text, len(a), len(b))
				}
			}
			m := perLayer(w, plain, traced, tr, layerReplay(tr.samples, tr.plans, true, w.topo == topoFabric))
			if m["central.handle_ns_per_tuple"].Value <= 0 || m["transport.wire_bytes_per_tuple"].Value <= 0 {
				t.Errorf("replay metrics missing: %v", m)
			}
			if fabric := m["coord.router_round_trips_per_batch"].Value > 0; fabric != (w.topo == topoFabric) {
				t.Errorf("coord metrics on %s: round trips %v", name, m["coord.router_round_trips_per_batch"].Value)
			}
		})
	}
}

// comparable strips receipt times and orders cells so two runs' windows
// can be compared for equality.
func comparable(ws []gotWindow) []gotWindow {
	out := make([]gotWindow, 0, len(ws))
	for _, w := range ws {
		w.recv = 0
		w.cells = append([]cell(nil), w.cells...)
		sort.Slice(w.cells, func(i, j int) bool { return w.cells[i].key < w.cells[j].key })
		out = append(out, w)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].start < out[j].start })
	return out
}

func TestFrameCounter(t *testing.T) {
	stream := []byte{3, 0, 0, 0, 'a', 'b', 'c', 0, 0, 0, 0, 1, 0, 0, 0, 'x'}
	for split := 0; split <= len(stream); split++ {
		var f frameCounter
		if n := f.feed(stream[:split]) + f.feed(stream[split:]); n != 3 {
			t.Errorf("split at %d: %d frames, want 3", split, n)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for q, want := range map[float64]float64{0: 1, 0.5: 3, 1: 5, 0.25: 2, 0.9: 4.6} {
		if got := quantile(xs, q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("empty sample")
	}
}

// TestMetricsMatchBenchmarkJSON holds the metric names and units the
// benchmark prints to the lists in BENCHMARK.json.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got map[string]metric, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: benchmark prints %d metrics, BENCHMARK.json lists %d", kind, len(got), len(want))
		}
		for _, m := range want {
			if g, ok := got[m.Name]; !ok || g.Unit != m.Unit {
				t.Errorf("%s: %s [%s] printed as %+v (present %v)", kind, m.Name, m.Unit, g, ok)
			}
		}
	}
	same("end_to_end", endToEnd(&phaseResult{}), spec.EndToEnd)
	for _, w := range workloads {
		same("per_layer "+w.name, perLayer(w, &phaseResult{}, &phaseResult{}, newTracer(), replayResult{}), spec.PerLayer)
	}
}
