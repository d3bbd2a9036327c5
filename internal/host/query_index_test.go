package host

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"scrub/internal/event"
	"scrub/internal/expr"
	"scrub/internal/transport"
)

// Tests for the shared query index: many concurrent queries compiled into
// one per-type evaluation DAG with projection groups (see typeProgram).
// The contract under test is that sharing is invisible — per-query tuple
// streams, counters, and sampling are bit-identical to running every
// query independently — while the hot path stays allocation-free.

// predSpellings returns predicate trees over the bid schema, including
// equivalent-but-differently-spelled pairs so canonicalization sharing is
// exercised, plus nil (match-all).
func predSpellings() []expr.Node {
	price := func() expr.Node { return expr.FieldRef{Type: "bid", Name: "bid_price"} }
	city := func() expr.Node { return expr.FieldRef{Type: "bid", Name: "city"} }
	user := func() expr.Node { return expr.FieldRef{Type: "bid", Name: "user_id"} }
	gt := func(l, r expr.Node) expr.Node { return expr.Binary{Op: expr.OpGt, L: l, R: r} }
	eq := func(l, r expr.Node) expr.Node { return expr.Binary{Op: expr.OpEq, L: l, R: r} }
	and := func(l, r expr.Node) expr.Node { return expr.Binary{Op: expr.OpAnd, L: l, R: r} }
	or := func(l, r expr.Node) expr.Node { return expr.Binary{Op: expr.OpOr, L: l, R: r} }
	out := []expr.Node{
		nil,
		gt(price(), expr.Lit{Val: event.Float(0.5)}),
		// Same conjunction spelled both ways: canonically identical.
		and(eq(city(), expr.Lit{Val: event.Str("sf")}), gt(price(), expr.Lit{Val: event.Float(0.5)})),
		and(gt(price(), expr.Lit{Val: event.Float(0.5)}), eq(city(), expr.Lit{Val: event.Str("sf")})),
		or(eq(expr.Binary{Op: expr.OpMod, L: user(), R: expr.Lit{Val: event.Int(2)}}, expr.Lit{Val: event.Int(0)}),
			expr.Binary{Op: expr.OpLe, L: price(), R: expr.Lit{Val: event.Float(0.2)}}),
		expr.In{X: city(), List: []expr.Node{
			expr.Lit{Val: event.Str("sf")}, expr.Lit{Val: event.Str("nyc")}, expr.Lit{Val: event.Str("sf")}}},
		expr.Unary{Op: expr.OpNot, X: gt(price(), expr.Lit{Val: event.Float(0.5)})},
		// x >= 3 && x >= 3: idempotent duplicate collapses in canon form.
		and(expr.Binary{Op: expr.OpGe, L: user(), R: expr.Lit{Val: event.Int(3)}},
			expr.Binary{Op: expr.OpGe, L: user(), R: expr.Lit{Val: event.Int(3)}}),
		// Pins both indexable fields: whichever the index picks, the
		// other atom stays a conjunct evaluated through the program.
		and(eq(city(), expr.Lit{Val: event.Str("sf")}), eq(user(), expr.Lit{Val: event.Int(2)})),
	}
	out = append(out, intAtomPreds()...)
	return append(out, strAtomPreds()...)
}

// intAtomPreds are predicates the equality index can bucket by user_id:
// whole atoms and `and` conjuncts, the literal on either side, literals
// shared by several spellings, and one no event carries.
func intAtomPreds() []expr.Node {
	user := func() expr.Node { return expr.FieldRef{Type: "bid", Name: "user_id"} }
	price := func() expr.Node { return expr.FieldRef{Type: "bid", Name: "bid_price"} }
	lit := func(i int64) expr.Node { return expr.Lit{Val: event.Int(i)} }
	eq := func(l, r expr.Node) expr.Node { return expr.Binary{Op: expr.OpEq, L: l, R: r} }
	and := func(l, r expr.Node) expr.Node { return expr.Binary{Op: expr.OpAnd, L: l, R: r} }
	return []expr.Node{
		eq(user(), lit(3)),
		eq(lit(3), user()),
		eq(user(), lit(5)),
		and(eq(user(), lit(3)), expr.Binary{Op: expr.OpGt, L: price(), R: expr.Lit{Val: event.Float(0.5)}}),
		and(expr.Binary{Op: expr.OpLe, L: price(), R: expr.Lit{Val: event.Float(0.2)}}, eq(lit(1), user())),
		eq(user(), lit(99)), // no event carries 99
		// A float literal on an int field is not indexable: it stays a
		// residual predicate.
		eq(user(), expr.Lit{Val: event.Float(3)}),
	}
}

// strAtomPreds are the string counterparts of intAtomPreds, over city.
func strAtomPreds() []expr.Node {
	city := func() expr.Node { return expr.FieldRef{Type: "bid", Name: "city"} }
	price := func() expr.Node { return expr.FieldRef{Type: "bid", Name: "bid_price"} }
	lit := func(s string) expr.Node { return expr.Lit{Val: event.Str(s)} }
	eq := func(l, r expr.Node) expr.Node { return expr.Binary{Op: expr.OpEq, L: l, R: r} }
	and := func(l, r expr.Node) expr.Node { return expr.Binary{Op: expr.OpAnd, L: l, R: r} }
	return []expr.Node{
		eq(city(), lit("nyc")),
		eq(lit("nyc"), city()),
		eq(city(), lit("")),
		and(eq(city(), lit("la")), expr.Binary{Op: expr.OpGt, L: price(), R: expr.Lit{Val: event.Float(0.5)}}),
		eq(city(), lit("tokyo")), // no event carries tokyo
	}
}

var colSets = [][]string{
	{"user_id", "city"},
	{"city", "user_id"}, // same columns, different order: distinct group
	{"bid_price"},
	{"user_id", "city"}, // repeat: shares the first group
	nil,                 // zero-width projection
}

func TestSharedIndexZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector; AllocsPerRun over the pooled dispatch context is meaningless")
	}
	// 16 queries cycling through the first 8 predicate spellings and 5
	// column sets:
	// the shared-DAG dispatch with fan-out, memoized subexpressions, and
	// projection groups must stay allocation-free, exactly like the old
	// per-query loop.
	a, err := New(Config{
		HostID: "h", Service: "s", Catalog: testCatalog(),
		Sink:      SinkFunc(func(transport.TupleBatch) error { return nil }),
		QueueSize: 1 << 18, BatchSize: 8192,
		FlushInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	preds := predSpellings()
	for i := 0; i < 16; i++ {
		if err := a.Start(transport.HostQuery{
			QueryID:   uint64(i + 1),
			EventType: "bid",
			Pred:      preds[i%8],
			Columns:   colSets[i%len(colSets)],
		}); err != nil {
			t.Fatal(err)
		}
	}
	ev := bidEvent(1, 4, "sf", 1.0, time.Now().UnixNano())
	a.Log(ev) // size the chunks and the pooled dispatch context
	if allocs := testing.AllocsPerRun(500, func() { a.Log(ev) }); allocs != 0 {
		t.Errorf("shared-index Log allocates %.1f/op, want 0", allocs)
	}
	a.Flush()
	if st := a.Stats(); st.Shipped == 0 {
		t.Error("measured tuples never shipped")
	}

	// 128 equality subscribers over 16 user_id literals, the host-fanout
	// shape with every third atom an `and` conjunct: a bucket hit (8
	// matches, 2 of them through the shared program), a miss, and the
	// fallback for a float-valued field, compared with all 16 literals,
	// must each stay allocation-free.
	eqa, err := New(Config{
		HostID: "h", Service: "s", Catalog: testCatalog(),
		Sink:      SinkFunc(func(transport.TupleBatch) error { return nil }),
		QueueSize: 1 << 18, BatchSize: 8192,
		FlushInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eqa.Close()
	for i := 0; i < 128; i++ {
		var pred expr.Node = expr.Binary{Op: expr.OpEq,
			L: expr.FieldRef{Type: "bid", Name: "user_id"}, R: expr.Lit{Val: event.Int(int64(i % 16))}}
		if i%3 == 0 {
			pred = expr.Binary{Op: expr.OpAnd, L: pred, R: expr.Binary{Op: expr.OpGt,
				L: expr.FieldRef{Type: "bid", Name: "bid_price"}, R: expr.Lit{Val: event.Float(0.5)}}}
		}
		if err := eqa.Start(transport.HostQuery{
			QueryID: uint64(i + 1), EventType: "bid",
			Pred:    pred,
			Columns: colSets[i%len(colSets)],
		}); err != nil {
			t.Fatal(err)
		}
	}
	now := time.Now().UnixNano()
	floatUser := bidEvent(3, 0, "sf", 1.0, now)
	floatUser.Values[0] = event.Float(3)
	for _, c := range []struct {
		name  string
		ev    *event.Event
		match uint64 // Stats().Matched growth per Log
	}{
		{"hit", bidEvent(2, 4, "sf", 1.0, now), 1},
		{"miss", bidEvent(2, 1000, "sf", 1.0, now), 0},
		{"fallback", floatUser, 1},
	} {
		before := eqa.Stats().Matched
		eqa.Log(c.ev)
		if allocs := testing.AllocsPerRun(500, func() { eqa.Log(c.ev) }); allocs != 0 {
			t.Errorf("equality index %s: Log allocates %.1f/op, want 0", c.name, allocs)
		}
		if got := eqa.Stats().Matched - before; got != 502*c.match {
			t.Errorf("equality index %s: matched %d events, want %d", c.name, got, 502*c.match)
		}
	}
}

func TestRebuildUnderConcurrentLogPredicates(t *testing.T) {
	// Start/Stop churn rebuilds the shared program while Log goroutines
	// dispatch through whichever snapshot they loaded. A stable query rides
	// along the whole time; every tuple it ships must satisfy its own
	// predicate regardless of how often the DAG around it was rebuilt.
	sink := &collectSink{}
	a := newAgent(t, sink)
	stable := transport.HostQuery{
		QueryID: 1, EventType: "bid",
		Pred: expr.Binary{Op: expr.OpEq,
			L: expr.FieldRef{Type: "bid", Name: "city"},
			R: expr.Lit{Val: event.Str("sf")}},
		Columns: []string{"city", "user_id"},
	}
	if err := a.Start(stable); err != nil {
		t.Fatal(err)
	}
	preds := predSpellings()
	now := time.Now().UnixNano()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cities := []string{"sf", "nyc", "la"}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					a.Log(bidEvent(uint64(i), int64(w), cities[i%3], float64(i%10)/5, now))
				}
			}
		}(w)
	}
	for i := 0; i < 60; i++ {
		qid := uint64(100 + i)
		if err := a.Start(transport.HostQuery{
			QueryID: qid, EventType: "bid",
			Pred:    preds[i%len(preds)],
			Columns: colSets[i%len(colSets)],
		}); err != nil {
			t.Error(err)
		}
		time.Sleep(500 * time.Microsecond)
		a.Stop(qid)
	}
	close(stop)
	wg.Wait()
	a.Flush()
	for _, b := range sink.all() {
		if b.QueryID != 1 {
			continue
		}
		for _, tu := range b.Tuples {
			if got, _ := tu.Values[0].AsStr(); got != "sf" {
				t.Fatalf("stable query shipped city %q, want sf", got)
			}
		}
	}
}

// refQuery is the naive per-query dispatch the shared index replaced: an
// independently compiled predicate over the ORIGINAL (un-canonicalized)
// tree and its own projection loop. It is the semantic oracle for the
// differential test below.
type refQuery struct {
	id             uint64
	pred           func(expr.Row) bool
	colIdx         []int
	startNs, endNs int64
	matched        uint64
	tuples         []transport.Tuple
}

func (r *refQuery) offer(ev *event.Event, ts int64) bool {
	if ts < r.startNs {
		return false
	}
	if r.endNs != 0 && ts >= r.endNs {
		return false
	}
	if r.pred != nil && !r.pred(expr.EventRow{Event: ev}) {
		return false
	}
	r.matched++
	vals := make([]event.Value, len(r.colIdx))
	for j, idx := range r.colIdx {
		vals[j] = ev.At(idx)
	}
	if len(vals) == 0 {
		vals = nil
	}
	r.tuples = append(r.tuples, transport.Tuple{RequestID: ev.RequestID, TsNanos: ts, Values: vals})
	return true
}

// sameValue is value identity for the differential checks: Equal, except
// that two missing values are the same (Equal is false on Invalid).
func sameValue(a, b event.Value) bool {
	return a.Kind() == b.Kind() && (a.Equal(b) || !a.IsValid())
}

// oddBid turns a Builder-made bid into one the Builder would reject, built
// directly as an event.Event: a float user_id equal to an int literal, an
// unset or wrongly-kinded field, a short value slice, or a look-alike
// "bid" schema whose field order differs from the catalog's.
func oddBid(ev *event.Event, variant int) *event.Event {
	user, city, price := ev.Values[0], ev.Values[1], ev.Values[2]
	out := &event.Event{Schema: bidSchema, RequestID: ev.RequestID, TimeNanos: ev.TimeNanos}
	switch variant {
	case 0:
		u, _ := user.AsInt()
		out.Values = []event.Value{event.Float(float64(u)), city, price}
	case 1:
		out.Values = []event.Value{event.Invalid, city, price}
	case 2:
		out.Values = []event.Value{user, event.Invalid, price}
	case 3:
		out.Values = []event.Value{user, event.Int(3), price}
	case 4:
		out.Values = []event.Value{user}
	default:
		// Positions 0 and 1 keep the kinds of user_id and city but hold
		// other fields, so reading the catalog's position would pick a
		// bucket by the wrong value.
		u, _ := user.AsInt()
		out.Schema = lookalikeBid
		out.Values = []event.Value{event.Int(u + 1), event.Str("nyc"), user, city, price}
	}
	return out
}

var lookalikeBid = event.MustSchema("bid",
	event.FieldDef{Name: "rank", Kind: event.KindInt},
	event.FieldDef{Name: "note", Kind: event.KindString},
	event.FieldDef{Name: "user_id", Kind: event.KindInt},
	event.FieldDef{Name: "city", Kind: event.KindString},
	event.FieldDef{Name: "bid_price", Kind: event.KindFloat},
)

func TestSharedDispatchMatchesReference(t *testing.T) {
	// Differential oracle for the shared index: 96 queries (heavy
	// predicate and projection overlap, some span-gated, a third pinning
	// a field to a constant) dispatched through the shared index must
	// produce, per query, exactly the tuple stream and matched count of a
	// naive loop that compiles every original predicate independently,
	// and the agent's Matched must count the events matching any query.
	// Odd seeds load the equality index onto user_id, even seeds onto
	// city, so both an int and a string index are exercised; one event in
	// four is an oddBid that must take the index's fallback. Rate 1
	// everywhere so sampling cannot hide a divergence.
	for seed := int64(1); seed <= 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			sink := &collectSink{}
			// The queue must hold the full run: nothing drains it until the
			// final Flush, and a drop would be a (correct) divergence from
			// the lossless reference.
			a := newAgent(t, sink, func(c *Config) {
				c.FlushInterval = time.Hour
				c.QueueSize = 1 << 18
			})
			preds := predSpellings()
			focus, field := intAtomPreds(), "user_id"
			if seed%2 == 0 {
				focus, field = strAtomPreds(), "city"
			}
			base := time.Now().UnixNano()
			const n = 2000
			refs := make(map[uint64]*refQuery)
			for i := 0; i < 96; i++ {
				qid := uint64(i + 1)
				pred := preds[rng.Intn(len(preds))]
				if i%3 == 0 {
					pred = focus[rng.Intn(len(focus))]
				}
				hq := transport.HostQuery{
					QueryID: qid, EventType: "bid",
					Pred:    pred,
					Columns: colSets[rng.Intn(len(colSets))],
				}
				if rng.Intn(3) == 0 { // span-gated third
					lo := rng.Int63n(n)
					hi := lo + 1 + rng.Int63n(n)
					hq.StartNanos = base + lo
					hq.EndNanos = base + hi
				}
				if err := a.Start(hq); err != nil {
					t.Fatal(err)
				}
				ref := &refQuery{id: qid, startNs: hq.StartNanos, endNs: hq.EndNanos}
				if hq.Pred != nil {
					checked, _, err := expr.Check(hq.Pred, expr.SchemaResolver{Schemas: []*event.Schema{bidSchema}})
					if err != nil {
						t.Fatal(err)
					}
					ev, err := expr.Compile(checked)
					if err != nil {
						t.Fatal(err)
					}
					ref.pred = expr.Predicate(ev)
				}
				for _, col := range hq.Columns {
					ref.colIdx = append(ref.colIdx, bidSchema.FieldIndex(col))
				}
				refs[qid] = ref
			}
			if tp := (*a.byType.Load())["bid"]; tp.eq == nil || tp.eq.field != bidSchema.FieldIndex(field) {
				t.Fatalf("equality index not built on %s", field)
			}
			cities := []string{"sf", "nyc", "la", ""}
			var anyMatched uint64
			for i := 0; i < n; i++ {
				ev := bidEvent(uint64(i), rng.Int63n(6), cities[rng.Intn(len(cities))],
					float64(rng.Intn(200))/100-0.3, base+int64(i))
				if v := rng.Intn(24); v < 6 {
					ev = oddBid(ev, v)
				}
				a.Log(ev)
				hit := false
				for _, ref := range refs {
					if ref.offer(ev, ev.TimeNanos) {
						hit = true
					}
				}
				if hit {
					anyMatched++
				}
			}
			a.Flush()
			st := a.Stats()
			if st.QueueDrops != 0 {
				t.Fatalf("queue dropped %d tuples; size the queue for the run", st.QueueDrops)
			}
			if st.Matched != anyMatched {
				t.Errorf("agent matched %d events, reference %d", st.Matched, anyMatched)
			}
			got := make(map[uint64][]transport.Tuple)
			lastMatched := make(map[uint64]uint64)
			for _, b := range sink.all() {
				got[b.QueryID] = append(got[b.QueryID], b.Tuples...)
				lastMatched[b.QueryID] = b.MatchedTotal
			}
			for qid, ref := range refs {
				if m := lastMatched[qid]; m != ref.matched {
					t.Errorf("query %d: matched %d, reference %d", qid, m, ref.matched)
				}
				gt := got[qid]
				if len(gt) != len(ref.tuples) {
					t.Fatalf("query %d: %d tuples, reference %d", qid, len(gt), len(ref.tuples))
				}
				for i := range gt {
					w := ref.tuples[i]
					g := gt[i]
					if g.RequestID != w.RequestID || g.TsNanos != w.TsNanos || len(g.Values) != len(w.Values) {
						t.Fatalf("query %d tuple %d: got %+v, want %+v", qid, i, g, w)
					}
					for j := range g.Values {
						if !sameValue(g.Values[j], w.Values[j]) {
							t.Fatalf("query %d tuple %d col %d: got %v, want %v", qid, i, j, g.Values[j], w.Values[j])
						}
					}
				}
			}
		})
	}
}

func TestSharedPredicateIndependentAccounting(t *testing.T) {
	// Two queries with the identical predicate and column set share one
	// DAG node and one projection group, but sampling and accounting stay
	// per-query: the downsampled query ships fewer tuples while its
	// sibling at rate 1 ships every match, and both report exact Mᵢ.
	sink := &collectSink{}
	a := newAgent(t, sink, func(c *Config) { c.FlushInterval = time.Hour })
	pred := func() expr.Node {
		return expr.Binary{Op: expr.OpGt,
			L: expr.FieldRef{Type: "bid", Name: "bid_price"},
			R: expr.Lit{Val: event.Float(0.5)}}
	}
	if err := a.Start(transport.HostQuery{
		QueryID: 1, EventType: "bid", Pred: pred(), Columns: []string{"user_id"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := a.Start(transport.HostQuery{
		QueryID: 2, EventType: "bid", Pred: pred(), Columns: []string{"user_id"},
		SampleEvents: 0.25,
	}); err != nil {
		t.Fatal(err)
	}
	now := time.Now().UnixNano()
	const n = 4000
	for i := 0; i < n; i++ {
		a.Log(bidEvent(uint64(i), int64(i), "sf", 1.0, now+int64(i)))
	}
	a.Flush()
	counts := make(map[uint64]int)
	matched := make(map[uint64]uint64)
	sampled := make(map[uint64]uint64)
	for _, b := range sink.all() {
		counts[b.QueryID] += len(b.Tuples)
		matched[b.QueryID] = b.MatchedTotal
		sampled[b.QueryID] = b.SampledTotal
	}
	if matched[1] != n || matched[2] != n {
		t.Errorf("matched = %d/%d, want %d for both", matched[1], matched[2], n)
	}
	if counts[1] != n {
		t.Errorf("rate-1 query shipped %d tuples, want %d", counts[1], n)
	}
	if uint64(counts[2]) != sampled[2] {
		t.Errorf("sampled query shipped %d tuples but reported mᵢ=%d", counts[2], sampled[2])
	}
	if counts[2] == 0 || counts[2] >= n/2 {
		t.Errorf("rate-0.25 query shipped %d of %d tuples, want roughly a quarter", counts[2], n)
	}
}

func TestEqIndexFieldChoice(t *testing.T) {
	// The index goes on the field the most subscribers pin (the lowest
	// position on a tie), and only atoms whose literal has the field's
	// schema kind count; a type with no such atom builds no index.
	flags := event.MustSchema("flags",
		event.FieldDef{Name: "user_id", Kind: event.KindInt},
		event.FieldDef{Name: "city", Kind: event.KindString},
		event.FieldDef{Name: "ok", Kind: event.KindBool},
		event.FieldDef{Name: "price", Kind: event.KindFloat},
	)
	f := func(name string) expr.Node { return expr.FieldRef{Type: "flags", Name: name} }
	eq := func(name string, v event.Value) expr.Node {
		return expr.Binary{Op: expr.OpEq, L: f(name), R: expr.Lit{Val: v}}
	}
	cases := []struct {
		name    string
		preds   []expr.Node
		field   int // -1: no index
		indexed int
	}{
		{"tie takes the lowest position", []expr.Node{eq("city", event.Str("sf")), eq("user_id", event.Int(3))}, 0, 1},
		{"majority wins", []expr.Node{eq("city", event.Str("sf")), eq("city", event.Str("la")), eq("user_id", event.Int(3))}, 1, 2},
		{"bool field", []expr.Node{eq("ok", event.Bool(true)), eq("ok", event.Bool(false)), nil}, 2, 2},
		{"float literal on an int field", []expr.Node{eq("user_id", event.Float(3)), nil}, -1, 0},
		{"float field", []expr.Node{eq("price", event.Float(1)), nil}, -1, 0},
		{"system field", []expr.Node{eq("request_id", event.Int(7)), nil}, -1, 0},
	}
	for _, c := range cases {
		cat := event.NewCatalog()
		cat.MustRegister(flags)
		sink := &collectSink{}
		a := newAgent(t, sink, func(cfg *Config) { cfg.Catalog = cat })
		for i, p := range c.preds {
			if err := a.Start(transport.HostQuery{QueryID: uint64(i + 1), EventType: "flags", Pred: p}); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		tp := (*a.byType.Load())["flags"]
		switch {
		case c.field < 0 && tp.eq != nil:
			t.Errorf("%s: index built on field %d, want none", c.name, tp.eq.field)
		case c.field >= 0 && (tp.eq == nil || tp.eq.field != c.field || indexedSubs(tp.eq) != c.indexed):
			t.Errorf("%s: index %+v, want field %d with %d subscribers", c.name, tp.eq, c.field, c.indexed)
		}
	}
	// A bool bucket hit: only the `ok = true` subscriber matches.
	cat := event.NewCatalog()
	cat.MustRegister(flags)
	sink := &collectSink{}
	a := newAgent(t, sink, func(cfg *Config) { cfg.Catalog = cat; cfg.FlushInterval = time.Hour })
	for i, v := range []bool{true, false} {
		if err := a.Start(transport.HostQuery{QueryID: uint64(i + 1), EventType: "flags", Pred: eq("ok", event.Bool(v))}); err != nil {
			t.Fatal(err)
		}
	}
	a.Log(event.NewBuilder(flags).SetTimeNanos(1).Bool("ok", true).MustBuild())
	a.Flush()
	matched := map[uint64]uint64{}
	for _, b := range sink.all() {
		matched[b.QueryID] = b.MatchedTotal
	}
	if matched[1] != 1 || matched[2] != 0 {
		t.Errorf("matched per query = %v, want query 1 only", matched)
	}
}

// BenchmarkLogEqualityFanout logs through N subscribers that each pin
// user_id to a distinct constant: a miss carries a value no subscriber
// pins, a hit matches exactly one. With the equality index both cost one
// lookup, so the miss is flat in N.
func BenchmarkLogEqualityFanout(b *testing.B) {
	for _, n := range []int{16, 128, 1024} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			a, err := New(Config{HostID: "h", Service: "s", Catalog: testCatalog(),
				Sink:      SinkFunc(func(transport.TupleBatch) error { return nil }),
				QueueSize: 1 << 16})
			if err != nil {
				b.Fatal(err)
			}
			defer a.Close()
			for i := 0; i < n; i++ {
				if err := a.Start(transport.HostQuery{
					QueryID: uint64(i + 1), EventType: "bid",
					Pred: expr.Binary{Op: expr.OpEq,
						L: expr.FieldRef{Type: "bid", Name: "user_id"}, R: expr.Lit{Val: event.Int(int64(i))}},
					Columns: []string{"city", "bid_price"},
				}); err != nil {
					b.Fatal(err)
				}
			}
			now := time.Now().UnixNano()
			for _, c := range []struct {
				name string
				user int64
			}{{"miss", int64(n)}, {"hit", 0}} {
				ev := bidEvent(1, c.user, "sf", 1.0, now)
				b.Run(c.name, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						a.Log(ev)
					}
				})
			}
		})
	}
}

// indexedSubs counts the subscribers in an equality index.
func indexedSubs(ix *eqIndex) int {
	n := 0
	for _, r := range ix.runs {
		n += len(r.subs)
	}
	return n
}

// BenchmarkStartEqualityFanout installs 128 queries over 16 user_id
// literals on a fresh agent: every Start rebuilds the type's dispatch
// snapshot, index included, so this is the control-plane cost of the
// index.
func BenchmarkStartEqualityFanout(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a, err := New(Config{HostID: "h", Service: "s", Catalog: testCatalog(),
			Sink: SinkFunc(func(transport.TupleBatch) error { return nil })})
		if err != nil {
			b.Fatal(err)
		}
		for q := 0; q < 128; q++ {
			if err := a.Start(transport.HostQuery{
				QueryID: uint64(q + 1), EventType: "bid",
				Pred: expr.Binary{Op: expr.OpEq,
					L: expr.FieldRef{Type: "bid", Name: "user_id"}, R: expr.Lit{Val: event.Int(int64(q % 16))}},
				Columns: []string{"city", "bid_price"},
			}); err != nil {
				b.Fatal(err)
			}
		}
		a.Close()
	}
}
