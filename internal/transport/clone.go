package transport

import "scrub/internal/event"

// CloneBatch deep-copies a batch. The Sink contract says a batch's Tuples
// slice and every tuple's Values array live in the sending agent's pooled
// chunk memory (//scrub:pooled) and are recycled the moment SendBatch
// returns, so anything that retains a batch must own its bytes. All the
// Values arrays are packed into one flat backing allocation, mirroring
// the chunk layout they came from: two allocations per clone, not
// two-per-tuple.
func CloneBatch(b TupleBatch) TupleBatch {
	out := b
	out.Tuples = make([]Tuple, len(b.Tuples))
	var vals []event.Value
	need := 0
	for i := range b.Tuples {
		need += len(b.Tuples[i].Values)
	}
	if need > 0 {
		vals = make([]event.Value, 0, need)
	}
	for i := range b.Tuples {
		out.Tuples[i] = b.Tuples[i]
		if n := len(b.Tuples[i].Values); n > 0 {
			vals = append(vals, b.Tuples[i].Values...)
			// Capped, so an append to one tuple's values cannot
			// overwrite the next tuple's.
			out.Tuples[i].Values = vals[len(vals)-n : len(vals) : len(vals)]
		}
	}
	return out
}
