package central

import (
	"testing"
	"time"

	"scrub/internal/event"
	"scrub/internal/ql"
	"scrub/internal/transport"
)

// The central apply path allocates nothing per tuple once a window's
// groups, join cells and slab chunks exist (DESIGN.md §9). These tests
// pin that; the benchmarks below measure the steady state of each query
// shape the end-to-end benchmark mixes.

const allocBatchSize = 256

// startBench installs src on a fresh engine against the test catalog.
func startBench(tb testing.TB, src string) *Engine {
	tb.Helper()
	cat := event.NewCatalog()
	cat.MustRegister(event.MustSchema("bid",
		event.FieldDef{Name: "user_id", Kind: event.KindInt},
		event.FieldDef{Name: "exchange_id", Kind: event.KindInt},
	))
	cat.MustRegister(event.MustSchema("exclusion",
		event.FieldDef{Name: "reason", Kind: event.KindString},
	))
	q, err := ql.Parse(src)
	if err != nil {
		tb.Fatal(err)
	}
	ap, err := ql.Analyze(q, cat)
	if err != nil {
		tb.Fatal(err)
	}
	e := NewEngine()
	if err := e.StartQuery(FromPlan(ap, 1, 0, 0, 1, 1), func(transport.ResultWindow) {}); err != nil {
		tb.Fatal(err)
	}
	return e
}

// intBatch builds a batch whose tuple j carries key(j) as its one value,
// every tuple inside the first 10s window.
func intBatch(key func(j int) int64) transport.TupleBatch {
	tuples := make([]transport.Tuple, allocBatchSize)
	vals := make([]event.Value, allocBatchSize)
	for j := range tuples {
		vals[j] = event.Int(key(j))
		tuples[j] = transport.Tuple{RequestID: uint64(j), TsNanos: sec(1) + int64(j), Values: vals[j : j+1 : j+1]}
	}
	return transport.TupleBatch{QueryID: 1, HostID: "h", Tuples: tuples}
}

func assertZeroAllocs(t *testing.T, e *Engine, b transport.TupleBatch) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	e.HandleBatch(b) // opens the window and its groups
	if got := testing.AllocsPerRun(100, func() { e.HandleBatch(b) }); got != 0 {
		t.Errorf("HandleBatch allocs/op = %v, want 0", got)
	}
}

func TestHandleBatchZeroAllocGrouped(t *testing.T) {
	e := startBench(t, `select bid.user_id, count(*), sum(bid.user_id) from bid group by bid.user_id window 10s`)
	assertZeroAllocs(t, e, intBatch(func(j int) int64 { return int64(j % 100) }))
}

func TestHandleBatchZeroAllocTopK(t *testing.T) {
	// 50 distinct items fit the summary's 80 counters: every item is
	// tracked after the first batch.
	e := startBench(t, `select top_k(bid.user_id, 10) from bid window 10s`)
	assertZeroAllocs(t, e, intBatch(func(j int) int64 { return int64(j % 50) }))
}

// benchHandle replays the batches with timestamps advancing a
// millisecond per tuple, so windows open, fill and close as in a live
// stream. Tuple j of every batch in a round carries request id j of that
// round: a join sees each request once per side.
func benchHandle(bm *testing.B, e *Engine, batches ...transport.TupleBatch) {
	bm.ReportAllocs()
	bm.ResetTimer()
	ts := int64(0)
	for i := 0; i < bm.N; i++ {
		for _, b := range batches {
			for j := range b.Tuples {
				ts += int64(time.Millisecond)
				b.Tuples[j].TsNanos = ts
				b.Tuples[j].RequestID = uint64(i*allocBatchSize + j)
			}
			e.HandleBatch(b)
		}
	}
}

func BenchmarkHandleBatchGrouped(b *testing.B) {
	e := startBench(b, `select bid.user_id, count(*) from bid group by bid.user_id window 10s`)
	benchHandle(b, e, intBatch(func(j int) int64 { return int64(j % 100) }))
}

func BenchmarkHandleBatchTopK(b *testing.B) {
	e := startBench(b, `select top_k(bid.user_id, 10) from bid window 10s`)
	benchHandle(b, e, intBatch(func(j int) int64 { return int64(j * j % 1000) }))
}

func BenchmarkHandleBatchJoin(b *testing.B) {
	e := startBench(b, `select exclusion.reason, count(*) from bid, exclusion group by exclusion.reason window 10s`)
	bids := intBatch(func(j int) int64 { return 0 })
	for j := range bids.Tuples {
		bids.Tuples[j].Values = nil // the join ships no bid columns
	}
	reasons := [...]string{"budget", "frequency_cap", "targeting"}
	excl := intBatch(func(j int) int64 { return 0 })
	excl.HostID, excl.TypeIdx = "x", 1
	for j := range excl.Tuples {
		excl.Tuples[j].Values[0] = event.Str(reasons[j%len(reasons)])
	}
	benchHandle(b, e, bids, excl)
}
