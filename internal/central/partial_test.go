package central

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"scrub/internal/event"
	"scrub/internal/transport"
)

// codecShard is a LocalShard whose partials cross the wire codec, as
// they do between a shard process and the coordinator.
type codecShard struct{ LocalShard }

func (s codecShard) Collect(p *Plan, bound int64) (Partials, error) {
	return roundTrip(p, s.Engine.CollectDriven(p.QueryID, bound))
}

func (s codecShard) Drain(p *Plan) (Partials, error) {
	return roundTrip(p, s.Engine.DrainDriven(p.QueryID))
}

func roundTrip(p *Plan, ps Partials) (Partials, error) {
	for i, w := range ps.Windows {
		dw, err := DecodePartial(p, EncodePartial(w))
		if err != nil {
			return Partials{}, err
		}
		ps.Windows[i] = dw
	}
	return ps, nil
}

// TestPartialCodecMatchesShardedEngine drives identical batches through a
// ShardedEngine, whose shards hand window state to the merger by pointer,
// and through a Merger whose shards serialize every partial with
// EncodePartial and decode it with DecodePartial — the shard fabric's
// data path — and requires every emitted window and the final stats to
// match bit for bit.
func TestPartialCodecMatchesShardedEngine(t *testing.T) {
	queries := []string{
		`select count(*) from bid`,
		`select exchange_id, count(*), sum(bid_price) from bid group by exchange_id`,
		`select avg(bid_price), min(bid_price), max(user_id) from bid`,
		`select top_k(exchange_id, 3), count_distinct(user_id) from bid`,
		`select user_id, bid_price from bid order by bid_price desc limit 7`,
		`select count(*) from bid sample events 50%`,
	}
	for qi, src := range queries {
		for _, shards := range []int{2, 4} {
			t.Run(fmt.Sprintf("q%d-s%d", qi, shards), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(qi*10 + shards)))
				var batches []transport.TupleBatch
				for h := 0; h < 3; h++ {
					host := fmt.Sprintf("h%d", h)
					for bi := 0; bi < 6; bi++ {
						var tuples []transport.Tuple
						for k := 0; k < 10; k++ {
							tuples = append(tuples, tup(
								uint64(rng.Intn(500)),
								sec(int64(rng.Intn(10))),
								event.Int(int64(rng.Intn(50))),
								event.Int(int64(rng.Intn(5))),
								event.Float(rng.NormFloat64()*10),
							))
						}
						batches = append(batches, bidBatch(1, host, tuples...))
					}
				}
				bound := sec(8)
				p := buildPlan(t, src, 1, 4, 2)
				p.Lateness = time.Hour
				run := func(ex Executor) ([]transport.ResultWindow, transport.QueryStats) {
					c := &collector{}
					if err := ex.StartQuery(p, c.emit); err != nil {
						t.Fatal(err)
					}
					for _, b := range batches {
						ex.HandleBatch(transport.CloneBatch(b))
					}
					ex.Tick(bound + int64(p.Lateness))
					st, ok := ex.StopQuery(1)
					if !ok {
						t.Fatal("StopQuery: unknown query")
					}
					return c.all(), st
				}

				se, err := NewShardedEngine(shards)
				if err != nil {
					t.Fatal(err)
				}
				want, wantSt := run(se)
				codec := &ShardedEngine{Merger: NewMerger(Options{})}
				for i := 0; i < shards; i++ {
					codec.shards = append(codec.shards, codecShard{LocalShard{Engine: NewEngine()}})
				}
				got, gotSt := run(codec)
				if gotSt != wantSt {
					t.Fatalf("final stats: encoded %+v vs unencoded %+v", gotSt, wantSt)
				}

				if len(got) != len(want) {
					t.Fatalf("window counts: encoded %d vs unencoded %d", len(got), len(want))
				}
				for i := range want {
					w, g := want[i], got[i]
					if w.WindowStart != g.WindowStart || w.WindowEnd != g.WindowEnd {
						t.Fatalf("window %d span: [%d,%d) vs [%d,%d)", i, g.WindowStart, g.WindowEnd, w.WindowStart, w.WindowEnd)
					}
					if w.Stats != g.Stats {
						t.Fatalf("window %d stats: %+v vs %+v", i, g.Stats, w.Stats)
					}
					if w.Approx != g.Approx || w.Degraded != g.Degraded || w.BudgetShed != g.BudgetShed {
						t.Fatalf("window %d flags: %+v vs %+v", i, g, w)
					}
					if !reflect.DeepEqual(w.Streams, g.Streams) {
						t.Fatalf("window %d streams:\n got %+v\nwant %+v", i, g.Streams, w.Streams)
					}
					if !reflect.DeepEqual(w.Rows, g.Rows) {
						t.Fatalf("window %d rows:\n got %v\nwant %v", i, g.Rows, w.Rows)
					}
					if len(w.ErrBounds) != len(g.ErrBounds) {
						t.Fatalf("window %d bounds len: %d vs %d", i, len(g.ErrBounds), len(w.ErrBounds))
					}
					for j := range w.ErrBounds {
						wb, gb := w.ErrBounds[j], g.ErrBounds[j]
						if math.IsNaN(wb) != math.IsNaN(gb) || (!math.IsNaN(wb) && math.Float64bits(wb) != math.Float64bits(gb)) {
							t.Fatalf("window %d bound %d: %v vs %v", i, j, gb, wb)
						}
					}
				}
			})
		}
	}
}
