package expr

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"scrub/internal/event"
)

// The properties pinned here are the correctness contract of the shared
// query index: Canon must be semantics-preserving and idempotent, and a
// Program must evaluate every interned tree bit-identically to the
// compiled closures, sharing canonically-equal subexpressions.

// genExpr builds a random unchecked tree of the requested kind over
// bidSchema. Depth-bounded; leaves are field references and literals
// (including occasional NaN, zero divisors, and type-mismatched specials
// that survive Check).
func genExpr(rng *rand.Rand, kind event.Kind, depth int) Node {
	if depth <= 0 || rng.Intn(4) == 0 {
		return genLeaf(rng, kind)
	}
	switch kind {
	case event.KindBool:
		switch rng.Intn(10) {
		case 0, 1:
			op := []Op{OpAnd, OpOr}[rng.Intn(2)]
			return Binary{Op: op, L: genExpr(rng, event.KindBool, depth-1), R: genExpr(rng, event.KindBool, depth-1)}
		case 2:
			return Unary{Op: OpNot, X: genExpr(rng, event.KindBool, depth-1)}
		case 3, 4:
			op := []Op{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe}[rng.Intn(6)]
			nk := []event.Kind{event.KindInt, event.KindFloat}[rng.Intn(2)]
			return Binary{Op: op, L: genExpr(rng, nk, depth-1), R: genExpr(rng, nk, depth-1)}
		case 5:
			op := []Op{OpEq, OpNe}[rng.Intn(2)]
			return Binary{Op: op, L: genExpr(rng, event.KindString, depth-1), R: genExpr(rng, event.KindString, depth-1)}
		case 6:
			// in-list with duplicates and shuffled order
			n := 1 + rng.Intn(4)
			list := make([]Node, n)
			for i := range list {
				list[i] = Lit{Val: event.Int(int64(rng.Intn(4)))}
			}
			return In{X: genExpr(rng, event.KindInt, depth-1), List: list, Negate: rng.Intn(2) == 0}
		case 7:
			pats := []string{"san%", "%jose", "s_n%", "%", "san jose", "a%b%c"}
			return Binary{Op: OpLike, L: FieldRef{Name: "city"}, R: Lit{Val: event.Str(pats[rng.Intn(len(pats))])}}
		case 8:
			if rng.Intn(2) == 0 {
				return Binary{Op: OpContains, L: FieldRef{Name: "city"}, R: genExpr(rng, event.KindString, depth-1)}
			}
			return Binary{Op: OpContains, L: FieldRef{Name: "segments"}, R: genExpr(rng, event.KindInt, depth-1)}
		default:
			return genLeaf(rng, event.KindBool)
		}
	case event.KindInt:
		op := []Op{OpAdd, OpSub, OpMul, OpMod}[rng.Intn(4)]
		return Binary{Op: op, L: genExpr(rng, event.KindInt, depth-1), R: genExpr(rng, event.KindInt, depth-1)}
	case event.KindFloat:
		switch rng.Intn(4) {
		case 0:
			return Binary{Op: OpDiv, L: genExpr(rng, event.KindFloat, depth-1), R: genExpr(rng, event.KindFloat, depth-1)}
		case 1:
			return Unary{Op: OpNeg, X: genExpr(rng, event.KindFloat, depth-1)}
		default:
			op := []Op{OpAdd, OpSub, OpMul}[rng.Intn(3)]
			// Mixing int operands exercises the int/float widening rules.
			lk := []event.Kind{event.KindFloat, event.KindInt}[rng.Intn(2)]
			rk := event.KindFloat
			if lk == event.KindFloat && rng.Intn(2) == 0 {
				rk = event.KindInt
			}
			return Binary{Op: op, L: genExpr(rng, lk, depth-1), R: genExpr(rng, rk, depth-1)}
		}
	case event.KindString:
		return genLeaf(rng, event.KindString)
	}
	return genLeaf(rng, kind)
}

func genLeaf(rng *rand.Rand, kind event.Kind) Node {
	switch kind {
	case event.KindBool:
		if rng.Intn(3) == 0 {
			return FieldRef{Name: "won"}
		}
		return Lit{Val: event.Bool(rng.Intn(2) == 0)}
	case event.KindInt:
		if rng.Intn(2) == 0 {
			return FieldRef{Name: "user_id"}
		}
		return Lit{Val: event.Int(int64(rng.Intn(7)) - 3)} // includes 0 divisors
	case event.KindFloat:
		if rng.Intn(2) == 0 {
			return FieldRef{Name: "bid_price"}
		}
		vals := []float64{0, 1, -1.5, 2.25, 1e9, math.NaN(), math.Inf(1)}
		return Lit{Val: event.Float(vals[rng.Intn(len(vals))])}
	case event.KindString:
		if rng.Intn(2) == 0 {
			return FieldRef{Name: "city"}
		}
		strs := []string{"", "san jose", "sf", "jose"}
		return Lit{Val: event.Str(strs[rng.Intn(len(strs))])}
	}
	return Lit{Val: event.Invalid}
}

// genRow builds a random bid event; some rows omit fields so predicates
// see Invalid (missing) values.
func genRow(rng *rand.Rand) Row {
	b := event.NewBuilder(bidSchema).SetRequestID(uint64(rng.Intn(100))).SetTimeNanos(int64(rng.Intn(1000)) + 1)
	if rng.Intn(8) != 0 {
		b.Int("user_id", int64(rng.Intn(7))-3)
	}
	if rng.Intn(8) != 0 {
		b.Str("city", []string{"", "san jose", "sf", "jose city"}[rng.Intn(4)])
	}
	if rng.Intn(8) != 0 {
		vals := []float64{0, 1, -1.5, 2.25, math.NaN(), math.Inf(-1)}
		b.Float("bid_price", vals[rng.Intn(len(vals))])
	}
	if rng.Intn(8) != 0 {
		b.Bool("won", rng.Intn(2) == 0)
	}
	if rng.Intn(8) != 0 {
		b.Set("segments", event.IntList(int64(rng.Intn(4)), int64(rng.Intn(4))))
	}
	return EventRow{Event: b.MustBuild()}
}

// eqv is the observational equivalence the rewrites promise: same kind
// and same value, where all NaNs are alike (no Scrub operator
// distinguishes NaN payloads) and Invalid equals Invalid.
func eqv(a, b event.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	if !a.IsValid() {
		return true
	}
	af, aok := a.AsFloat()
	bf, bok := b.AsFloat()
	if aok && bok && math.IsNaN(af) && math.IsNaN(bf) {
		return true
	}
	return a.Equal(b)
}

func TestCanonPreservesSemantics(t *testing.T) {
	res := singleResolver()
	trees, rows, skipped := 0, 0, 0
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		raw := genExpr(rng, event.KindBool, 4)
		checked, kind, err := Check(raw, res)
		if err != nil {
			skipped++
			continue
		}
		if kind != event.KindBool {
			t.Fatalf("seed %d: generator produced %s, want bool", seed, kind)
		}
		orig, err := Compile(checked)
		if err != nil {
			t.Fatalf("seed %d: compile original: %v", seed, err)
		}
		canon := Canon(checked)
		ce, err := Compile(canon)
		if err != nil {
			t.Fatalf("seed %d: compile canonical form of %s: %v\ncanon: %s", seed, checked, err, canon)
		}
		// Idempotence: canonicalizing twice is a fixed point.
		k1, err1 := AppendNode(nil, canon)
		k2, err2 := AppendNode(nil, Canon(canon))
		if err1 != nil || err2 != nil || !bytes.Equal(k1, k2) {
			t.Fatalf("seed %d: Canon not idempotent:\n  once:  %s\n  twice: %s", seed, canon, Canon(canon))
		}
		// Program built from the canonical tree.
		pb := NewProgramBuilder()
		id, err := pb.Intern(canon)
		if err != nil {
			t.Fatalf("seed %d: intern: %v", seed, err)
		}
		ctx := pb.Build().NewCtx()
		trees++
		for i := 0; i < 32; i++ {
			row := genRow(rng)
			want := orig(row)
			if got := ce(row); !eqv(want, got) {
				t.Fatalf("seed %d row %d: canon diverges\n  expr:  %s\n  canon: %s\n  want %v got %v",
					seed, i, checked, canon, want, got)
			}
			ctx.Begin(row)
			if got := ctx.Value(id); !eqv(want, got) {
				t.Fatalf("seed %d row %d: program diverges\n  expr:  %s\n  canon: %s\n  want %v got %v",
					seed, i, checked, canon, want, got)
			}
			wantB, okB := want.AsBool()
			if gotB := ctx.Bool(id); gotB != (okB && wantB) {
				t.Fatalf("seed %d row %d: predicate diverges: want %v got %v", seed, i, okB && wantB, gotB)
			}
			ctx.Finish()
			rows++
		}
	}
	if trees < 200 {
		t.Fatalf("only %d/%d generated trees type-checked (%d skipped) — generator has rotted", trees, 400, skipped)
	}
	t.Logf("checked %d trees × rows = %d evaluations", trees, rows)
}

func TestCanonSharesEquivalentSpellings(t *testing.T) {
	res := singleResolver()
	price := FieldRef{Name: "bid_price"}
	user := FieldRef{Name: "user_id"}
	city := FieldRef{Name: "city"}
	gt := func(f FieldRef, v float64) Node { return Binary{Op: OpGt, L: f, R: Lit{Val: event.Float(v)}} }
	eqs := func(f FieldRef, s string) Node { return Binary{Op: OpEq, L: f, R: Lit{Val: event.Str(s)}} }
	cases := []struct{ a, b Node }{
		// and-operand order
		{Binary{Op: OpAnd, L: gt(price, 1.5), R: eqs(city, "sf")},
			Binary{Op: OpAnd, L: eqs(city, "sf"), R: gt(price, 1.5)}},
		// nested and-chain associativity
		{Binary{Op: OpAnd, L: Binary{Op: OpAnd, L: gt(price, 1.5), R: eqs(city, "sf")}, R: FieldRef{Name: "won"}},
			Binary{Op: OpAnd, L: eqs(city, "sf"), R: Binary{Op: OpAnd, L: FieldRef{Name: "won"}, R: gt(price, 1.5)}}},
		// equality operand order
		{Binary{Op: OpEq, L: user, R: Lit{Val: event.Int(7)}},
			Binary{Op: OpEq, L: Lit{Val: event.Int(7)}, R: user}},
		// in-list order and duplicates
		{In{X: user, List: []Node{Lit{Val: event.Int(3)}, Lit{Val: event.Int(1)}, Lit{Val: event.Int(3)}}},
			In{X: user, List: []Node{Lit{Val: event.Int(1)}, Lit{Val: event.Int(3)}}}},
		// constant folding
		{Binary{Op: OpGt, L: price, R: Binary{Op: OpMul, L: Lit{Val: event.Float(0.5)}, R: Lit{Val: event.Int(3)}}},
			Binary{Op: OpGt, L: price, R: Lit{Val: event.Float(1.5)}}},
		// identity and annihilator operands
		{Binary{Op: OpAnd, L: gt(price, 2), R: Lit{Val: event.Bool(true)}}, gt(price, 2)},
		{Binary{Op: OpOr, L: gt(price, 2), R: Lit{Val: event.Bool(false)}}, gt(price, 2)},
	}
	for i, c := range cases {
		ca, _, err := Check(c.a, res)
		if err != nil {
			t.Fatalf("case %d: check a: %v", i, err)
		}
		cb, _, err := Check(c.b, res)
		if err != nil {
			t.Fatalf("case %d: check b: %v", i, err)
		}
		pb := NewProgramBuilder()
		ida, err := pb.Intern(Canon(ca))
		if err != nil {
			t.Fatalf("case %d: intern a: %v", i, err)
		}
		idb, err := pb.Intern(Canon(cb))
		if err != nil {
			t.Fatalf("case %d: intern b: %v", i, err)
		}
		if ida != idb {
			t.Errorf("case %d: equivalent spellings interned separately:\n  %s -> %d\n  %s -> %d",
				i, Canon(ca), ida, Canon(cb), idb)
		}
	}
	// Annihilator collapse: X and false folds to the false literal.
	ca, _, err := Check(Binary{Op: OpAnd, L: gt(price, 2), R: Lit{Val: event.Bool(false)}}, res)
	if err != nil {
		t.Fatal(err)
	}
	if c, ok := Canon(ca).(Lit); !ok || c.Val.String() != "false" {
		t.Errorf("X and false canonicalized to %s, want the false literal", Canon(ca))
	}
}

func TestProgramSharesSubexpressions(t *testing.T) {
	res := singleResolver()
	price := FieldRef{Name: "bid_price"}
	// Two different predicates over a common subexpression: the field
	// reference and the shared conjunct must intern once each.
	p1 := Binary{Op: OpAnd,
		L: Binary{Op: OpGt, L: price, R: Lit{Val: event.Float(1.5)}},
		R: Binary{Op: OpEq, L: FieldRef{Name: "city"}, R: Lit{Val: event.Str("sf")}}}
	p2 := Binary{Op: OpAnd,
		L: Binary{Op: OpGt, L: price, R: Lit{Val: event.Float(1.5)}},
		R: FieldRef{Name: "won"}}
	pb := NewProgramBuilder()
	var ids []int32
	for _, p := range []Node{p1, p2} {
		checked, _, err := Check(p, res)
		if err != nil {
			t.Fatal(err)
		}
		id, err := pb.Intern(Canon(checked))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	prog := pb.Build()
	// p1: price, 1.5, price>1.5, city, "sf", city="sf", and = 7 nodes.
	// p2 adds: won, and = 2 more. Shared: price, 1.5, price>1.5.
	if prog.NumNodes() != 9 {
		t.Errorf("program has %d nodes, want 9 (price>1.5 subtree shared)", prog.NumNodes())
	}
	if ids[0] == ids[1] {
		t.Error("distinct predicates interned to the same id")
	}
	// Shared-node evaluation count: with memoization the shared conjunct's
	// field read happens once per row even when both roots are evaluated.
	ev := event.NewBuilder(bidSchema).Int("user_id", 1).Str("city", "sf").
		Float("bid_price", 2.0).Bool("won", true).SetTimeNanos(1).MustBuild()
	ctx := prog.NewCtx()
	ctx.Begin(EventRow{Event: ev})
	if !ctx.Bool(ids[0]) || !ctx.Bool(ids[1]) {
		t.Error("both predicates should match")
	}
	// Every node forced at most once: touched ids must be unique.
	seen := map[int32]bool{}
	for _, id := range ctx.touched {
		if seen[id] {
			t.Errorf("node %d forced twice in one row", id)
		}
		seen[id] = true
	}
	ctx.Finish()
	if len(ctx.touched) != 0 {
		t.Error("Finish did not reset the touched list")
	}
	for i, v := range ctx.vals {
		if v.IsValid() {
			t.Errorf("Finish left node %d's value populated (pins event payloads)", i)
		}
	}
}

func TestEqAtoms(t *testing.T) {
	// EqAtoms finds `field = literal` as the whole canonical predicate or
	// as a top-level and conjunct, on either side of the =, and nothing
	// under or/not or in other comparison shapes.
	res := singleResolver()
	user := FieldRef{Name: "user_id"}
	city := FieldRef{Name: "city"}
	price := FieldRef{Name: "bid_price"}
	eq := func(l, r Node) Node { return Binary{Op: OpEq, L: l, R: r} }
	and := func(l, r Node) Node { return Binary{Op: OpAnd, L: l, R: r} }
	gt := Binary{Op: OpGt, L: price, R: Lit{Val: event.Float(1)}}
	u7 := EqAtom{Field: FieldRef{Type: "bid", Name: "user_id"}, Val: event.Int(7)}
	sf := EqAtom{Field: FieldRef{Type: "bid", Name: "city"}, Val: event.Str("sf")}
	whole := func(a EqAtom) EqAtom { a.Whole = true; return a }
	cases := []struct {
		pred Node
		want []EqAtom // in any order
	}{
		{eq(user, Lit{Val: event.Int(7)}), []EqAtom{whole(u7)}},
		{eq(Lit{Val: event.Int(7)}, user), []EqAtom{whole(u7)}},
		{and(gt, eq(user, Lit{Val: event.Int(7)})), []EqAtom{u7}},
		{and(eq(city, Lit{Val: event.Str("sf")}), and(gt, eq(Lit{Val: event.Int(7)}, user))), []EqAtom{u7, sf}},
		{Binary{Op: OpOr, L: eq(user, Lit{Val: event.Int(7)}), R: gt}, nil},
		{Unary{Op: OpNot, X: eq(user, Lit{Val: event.Int(7)})}, nil},
		{Binary{Op: OpNe, L: user, R: Lit{Val: event.Int(7)}}, nil},
		{eq(user, Binary{Op: OpMod, L: user, R: Lit{Val: event.Int(2)}}), nil},
		{gt, nil},
	}
	for i, c := range cases {
		checked, _, err := Check(c.pred, res)
		if err != nil {
			t.Fatal(err)
		}
		got := EqAtoms(Canon(checked))
		if len(got) != len(c.want) {
			t.Errorf("case %d (%s): got %+v, want %+v", i, c.pred, got, c.want)
			continue
		}
	want:
		for _, w := range c.want {
			for _, g := range got {
				if g.Field == w.Field && g.Val.Kind() == w.Val.Kind() && g.Val.Equal(w.Val) && g.Whole == w.Whole {
					continue want
				}
			}
			t.Errorf("case %d (%s): got %+v, missing %+v", i, c.pred, got, w)
		}
	}
}
