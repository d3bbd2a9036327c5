package central

import (
	"testing"

	"scrub/internal/event"
	"scrub/internal/obs"
	"scrub/internal/transport"
)

// gaugeValue scrapes one unlabelled series from the registry.
func gaugeValue(t *testing.T, reg *obs.Registry, name string) float64 {
	t.Helper()
	for _, s := range reg.Snapshot() {
		if s.Name == name {
			return s.Value
		}
	}
	t.Fatalf("%s not registered", name)
	return 0
}

// TestJoinGaugesLive: with a join query mid-window, the watermark-lag
// and join-pending series read what the executor holds — on the single
// node and across in-process shards alike — and join-pending returns to
// zero once the window is handed out.
func TestJoinGaugesLive(t *testing.T) {
	const src = `select exclusion.reason, count(*) from bid, exclusion group by exclusion.reason window 10s`
	build := map[string]func(Options) (Executor, error){
		"engine": func(o Options) (Executor, error) { return NewEngineWith(o), nil },
		"sharded2": func(o Options) (Executor, error) {
			return NewShardedEngineWith(2, o)
		},
	}
	for name, mk := range build {
		t.Run(name, func(t *testing.T) {
			reg := obs.NewRegistry()
			vc := &virtualClock{}
			ex, err := mk(Options{Clock: vc.now, Metrics: reg})
			if err != nil {
				t.Fatal(err)
			}
			if err := ex.StartQuery(buildPlan(t, src, 1, 1, 1), func(transport.ResultWindow) {}); err != nil {
				t.Fatal(err)
			}
			// Four bids whose exclusions have not arrived: all buffered,
			// spread over both shards by request id.
			vc.nanos = sec(7)
			ex.HandleBatch(bidBatch(1, "h1",
				tup(1, sec(1)), tup(2, sec(2)), tup(3, sec(3)), tup(4, sec(4))))
			if got := gaugeValue(t, reg, "scrub_central_join_pending"); got != 4 {
				t.Errorf("join pending = %v, want 4", got)
			}
			if got := gaugeValue(t, reg, "scrub_central_watermark_lag_ns"); got != float64(sec(3)) {
				t.Errorf("watermark lag = %v, want %v (clock 7s, watermark 4s)", got, sec(3))
			}
			// A partner joins one bid; buffered tuples stay pending until
			// their window closes.
			ex.HandleBatch(transport.TupleBatch{QueryID: 1, HostID: "h2", TypeIdx: 1,
				Tuples: []transport.Tuple{tup(2, sec(5), event.Str("budget"))}})
			if got := gaugeValue(t, reg, "scrub_central_join_pending"); got != 5 {
				t.Errorf("join pending after partner = %v, want 5", got)
			}
			ex.Tick(sec(60))
			if got := gaugeValue(t, reg, "scrub_central_join_pending"); got != 0 {
				t.Errorf("join pending after the window closed = %v, want 0", got)
			}
		})
	}
}
