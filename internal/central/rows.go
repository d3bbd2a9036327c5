package central

import (
	"scrub/internal/event"
	"scrub/internal/expr"
	"scrub/internal/transport"
)

// The row adapters are evaluated through pointers: each query keeps one
// sideRow and one joinRow that it re-points at every tuple, and a
// window render one resultRow, so handing a row to a compiled evaluator
// stores a pointer in the expr.Row interface instead of boxing a copy of
// the struct per call. Pointer receivers make a by-value row a compile
// error rather than a silent allocation.

// field resolves a field reference against one shipped tuple of the
// typeIdx'th FROM type. Field lookups use the per-type column index
// built at plan compile time.
func (c *compiled) field(types []string, typeIdx int, t *transport.Tuple, typ, name string) event.Value {
	if typ != "" && typ != types[typeIdx] {
		return event.Invalid
	}
	switch name {
	case event.FieldRequestID:
		return event.Int(int64(t.RequestID))
	case event.FieldTimestamp:
		return event.TimeNanos(t.TsNanos)
	}
	idx, ok := c.colIdx[typeIdx][name]
	if !ok || idx >= len(t.Values) {
		return event.Invalid
	}
	return t.Values[idx]
}

// sideRow adapts a single shipped tuple as an expr.Row.
type sideRow struct {
	c       *compiled
	types   []string
	typeIdx int
	tuple   *transport.Tuple
}

// Field implements expr.Row.
func (r *sideRow) Field(typ, name string) event.Value {
	return r.c.field(r.types, r.typeIdx, r.tuple, typ, name)
}

// Agg implements expr.Row; tuples carry no aggregates.
func (*sideRow) Agg(int) event.Value { return event.Invalid }

// joinRow adapts a joined tuple pair. Qualified lookups pick the side by
// type; unqualified lookups resolve against side 0 first (matching the
// resolver's determinism for system fields — user fields were qualified
// during validation).
type joinRow struct {
	c     *compiled
	types []string
	left  *transport.Tuple // side 0
	right *transport.Tuple // side 1
}

// Field implements expr.Row.
func (r *joinRow) Field(typ, name string) event.Value {
	switch typ {
	case r.types[0]:
		return r.c.field(r.types, 0, r.left, typ, name)
	case r.types[1]:
		return r.c.field(r.types, 1, r.right, typ, name)
	case "":
		if v := r.c.field(r.types, 0, r.left, "", name); v.IsValid() {
			return v
		}
		return r.c.field(r.types, 1, r.right, "", name)
	default:
		return event.Invalid
	}
}

// Agg implements expr.Row.
func (*joinRow) Agg(int) event.Value { return event.Invalid }

// resultRow is the evaluation context when a window closes: group-by key
// values for field references, scaled aggregate results for AggRefs.
type resultRow struct {
	groupBy []expr.FieldRef
	keyVals []event.Value
	aggVals []event.Value
}

// Field implements expr.Row: only group-by keys are addressable in result
// expressions (enforced at validation).
func (r *resultRow) Field(typ, name string) event.Value {
	for i, g := range r.groupBy {
		if g.Name == name && (typ == "" || typ == g.Type) {
			return r.keyVals[i]
		}
	}
	return event.Invalid
}

// Agg implements expr.Row.
func (r *resultRow) Agg(i int) event.Value {
	if i < 0 || i >= len(r.aggVals) {
		return event.Invalid
	}
	return r.aggVals[i]
}

// compareValues totally orders two result values: Value.Compare when the
// kinds allow it, else the string forms. Used for deterministic result
// ordering — a total order is required so ORDER BY ties and raw-row
// output are reproducible across runs and across the single-node and
// sharded engines.
func compareValues(a, b event.Value) int {
	if c, ok := a.Compare(b); ok {
		return c
	}
	return compareStrings(a.String(), b.String())
}

// compareRows totally orders two result rows column by column. Shorter
// rows (never produced by one plan, but kept total for safety) sort
// first.
func compareRows(a, b []event.Value) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := compareValues(a[i], b[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}
