package sketch

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// TestSpaceSavingMatchesReference holds the heap-ordered summary to the
// bucket-list summary it replaced (refSpaceSaving): over seeded zipf
// streams with evictions and ties at the minimum count, AddN, Merge (of
// full and below-capacity summaries) and a DecodeSpaceSaving round trip,
// Top(Len()) and the AppendBinary bytes must match at every checkpoint.
// Equal bytes are what keep Engine, ShardedEngine and the shard fabric
// bit-identical.
func TestSpaceSavingMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capacity := 2 + rng.Intn(40)
		universe := 20 + rng.Intn(400)
		z := rand.NewZipf(rng, 1.1+rng.Float64(), 1, uint64(universe-1))
		feed := func(s *SpaceSaving, r *refSpaceSaving, n int) {
			for i := 0; i < n; i++ {
				item := fmt.Sprintf("item-%03d", z.Uint64())
				switch rng.Intn(8) {
				case 0:
					k := uint64(rng.Intn(4)) // AddN, zero included
					s.AddN(item, k)
					r.AddN(item, k)
				case 1:
					s.AddBytes([]byte(item))
					r.Add(item)
				default:
					s.Add(item)
					r.Add(item)
				}
			}
		}
		check := func(s *SpaceSaving, r *refSpaceSaving, ctx string) {
			t.Helper()
			if got, want := s.Top(s.Len()), r.Top(r.Len()); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d %s: Top differs\n heap %v\n  ref %v", seed, ctx, got, want)
			}
			if got, want := s.AppendBinary(nil), r.AppendBinary(nil); !bytes.Equal(got, want) {
				t.Fatalf("seed %d %s: AppendBinary bytes differ", seed, ctx)
			}
		}

		s, r := MustSpaceSaving(capacity), mustRef(capacity)
		for step := 0; step < 20; step++ {
			feed(s, r, 50)
			check(s, r, fmt.Sprintf("after %d adds", 50*(step+1)))
		}

		// Merge a full summary, then one still below capacity.
		for _, n := range []int{2000, capacity / 2} {
			os, or := MustSpaceSaving(capacity), mustRef(capacity)
			feed(os, or, n)
			s.Merge(os)
			r.Merge(or)
			check(s, r, fmt.Sprintf("after merging a %d-add summary", n))
			feed(s, r, 200)
			check(s, r, "after adds following the merge")
		}

		// Round trip: the decoded heap keeps matching a reference rebuilt
		// from the same entries.
		d, _, err := DecodeSpaceSaving(s.AppendBinary(nil))
		if err != nil {
			t.Fatalf("seed %d: decode: %v", seed, err)
		}
		rd := mustRef(capacity)
		rd.rebuild(r.Top(r.Len()))
		check(d, rd, "after the round trip")
		feed(d, rd, 500)
		check(d, rd, "after adds following the round trip")
	}
}

func mustRef(capacity int) *refSpaceSaving {
	r, err := newRefSpaceSaving(capacity)
	if err != nil {
		panic(err)
	}
	return r
}
