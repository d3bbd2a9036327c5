package sketch

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// refSpaceSaving is the bucket-list stream summary SpaceSaving used
// before it became a heap, kept verbatim (renamed) as the reference the
// equivalence test holds the heap to: a doubly linked list of distinct
// counts, each bucket a set of counters, with the eviction victim chosen
// by scanning the minimum bucket for the smallest item.
type refSpaceSaving struct {
	capacity int
	counters map[string]*refCounter
	// buckets is a doubly linked list of distinct counts in ascending
	// order; each bucket holds the set of counters at that count. This is
	// the "stream summary" layout that gives O(1) increments.
	minBucket *refBucket
}

type refCounter struct {
	item   string
	count  uint64
	errVal uint64 // overestimation inherited at takeover
	bucket *refBucket
}

type refBucket struct {
	count      uint64
	members    map[*refCounter]struct{}
	prev, next *refBucket
}

// newRefSpaceSaving creates a summary with the given counter capacity.
func newRefSpaceSaving(capacity int) (*refSpaceSaving, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("sketch: refSpaceSaving capacity must be positive, got %d", capacity)
	}
	return &refSpaceSaving{capacity: capacity, counters: make(map[string]*refCounter, capacity)}, nil
}

// Capacity returns the maximum number of tracked items.
func (s *refSpaceSaving) Capacity() int { return s.capacity }

// Len returns the number of currently tracked items.
func (s *refSpaceSaving) Len() int { return len(s.counters) }

// Add increments item by one.
func (s *refSpaceSaving) Add(item string) { s.AddN(item, 1) }

// AddN increments item by n.
func (s *refSpaceSaving) AddN(item string, n uint64) {
	if n == 0 {
		return
	}
	if c, ok := s.counters[item]; ok {
		s.bump(c, n)
		return
	}
	if len(s.counters) < s.capacity {
		c := &refCounter{item: item, count: 0}
		s.counters[item] = c
		s.attach(c) // attach at count 0 bucket semantics via bump
		s.bump(c, n)
		return
	}
	// Evict the minimum counter: the new item takes it over, inheriting
	// its count as error.
	victim := s.anyMinCounter()
	delete(s.counters, victim.item)
	victim.errVal = victim.count
	victim.item = item
	s.counters[item] = victim
	s.bump(victim, n)
}

// attach places a fresh counter into a zero-count staging bucket.
func (s *refSpaceSaving) attach(c *refCounter) {
	b := s.minBucket
	if b == nil || b.count != 0 {
		nb := &refBucket{count: 0, members: make(map[*refCounter]struct{})}
		nb.next = s.minBucket
		if s.minBucket != nil {
			s.minBucket.prev = nb
		}
		s.minBucket = nb
		b = nb
	}
	b.members[c] = struct{}{}
	c.bucket = b
}

// bump moves a counter up by n, maintaining the bucket list.
func (s *refSpaceSaving) bump(c *refCounter, n uint64) {
	old := c.bucket
	newCount := c.count + n
	c.count = newCount

	// Find or create the destination bucket after old.
	cur := old
	for cur.next != nil && cur.next.count < newCount {
		cur = cur.next
	}
	var dst *refBucket
	if cur.next != nil && cur.next.count == newCount {
		dst = cur.next
	} else {
		dst = &refBucket{count: newCount, members: make(map[*refCounter]struct{})}
		dst.prev = cur
		dst.next = cur.next
		if cur.next != nil {
			cur.next.prev = dst
		}
		cur.next = dst
	}
	delete(old.members, c)
	dst.members[c] = struct{}{}
	c.bucket = dst
	if len(old.members) == 0 {
		s.unlink(old)
	}
}

func (s *refSpaceSaving) unlink(b *refBucket) {
	if b.prev != nil {
		b.prev.next = b.next
	} else {
		s.minBucket = b.next
	}
	if b.next != nil {
		b.next.prev = b.prev
	}
}

// anyMinCounter picks the eviction victim from the minimum bucket: the
// lexicographically smallest item, so identical streams always build
// identical summaries. Map-order victim choice would make replays (and
// Engine vs ShardedEngine comparisons) nondeterministic. The scan is
// bounded by the summary capacity and only runs on eviction.
func (s *refSpaceSaving) anyMinCounter() *refCounter {
	var victim *refCounter
	for c := range s.minBucket.members {
		if victim == nil || c.item < victim.item {
			victim = c
		}
	}
	return victim // nil is unreachable when Len > 0
}

// Top returns the k highest-count entries, ties broken by item for
// determinism.
func (s *refSpaceSaving) Top(k int) []Entry {
	all := make([]Entry, 0, len(s.counters))
	for _, c := range s.counters {
		all = append(all, Entry{Item: c.item, Count: c.count, Err: c.errVal})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Count != all[j].Count {
			return all[i].Count > all[j].Count
		}
		return all[i].Item < all[j].Item
	})
	if k < len(all) {
		all = all[:k]
	}
	return all
}

// Count returns the (over)estimate for an item and whether it is tracked.
func (s *refSpaceSaving) Count(item string) (uint64, bool) {
	c, ok := s.counters[item]
	if !ok {
		return 0, false
	}
	return c.count, true
}

// Merge folds another summary into s using the mergeable-summaries
// algorithm for refSpaceSaving: counts and errors for common items add; an
// item tracked by only one full summary may still have occurred up to
// the other summary's minimum count times there, so it inherits that
// minimum as both count and overestimation error (absence from a
// below-capacity summary means a true zero and inherits nothing). The
// merged items are ranked by count and the top `capacity` survive. This
// keeps both sides of the refSpaceSaving guarantee sound after any merge
// tree: trueCount(x) <= Count(x) and Count(x) − Err(x) <= trueCount(x).
func (s *refSpaceSaving) Merge(o *refSpaceSaving) {
	if o == nil || o.Len() == 0 {
		return
	}
	minS := s.minInheritance()
	minO := o.minInheritance()
	merged := make(map[string]Entry, len(s.counters)+len(o.counters))
	for _, c := range s.counters {
		merged[c.item] = Entry{Item: c.item, Count: c.count, Err: c.errVal}
	}
	for _, c := range o.counters {
		if e, ok := merged[c.item]; ok {
			e.Count += c.count
			e.Err += c.errVal
			merged[c.item] = e
		} else {
			merged[c.item] = Entry{Item: c.item, Count: c.count + minS, Err: c.errVal + minS}
		}
	}
	if minO > 0 {
		for item, e := range merged {
			if _, inO := o.counters[item]; !inO {
				e.Count += minO
				e.Err += minO
				merged[item] = e
			}
		}
	}
	all := make([]Entry, 0, len(merged))
	for _, e := range merged {
		all = append(all, e)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Count != all[j].Count {
			return all[i].Count > all[j].Count
		}
		return all[i].Item < all[j].Item
	})
	if len(all) > s.capacity {
		all = all[:s.capacity]
	}
	s.rebuild(all)
}

// minInheritance returns the count an untracked item could have reached
// in this summary: the minimum tracked count when at capacity, else 0
// (a below-capacity summary tracks everything it has ever seen).
func (s *refSpaceSaving) minInheritance() uint64 {
	if len(s.counters) < s.capacity || s.minBucket == nil {
		return 0
	}
	return s.minBucket.count
}

// rebuild replaces the summary's contents with entries sorted by
// descending count, reconstructing the ascending bucket list.
func (s *refSpaceSaving) rebuild(entries []Entry) {
	s.counters = make(map[string]*refCounter, s.capacity)
	s.minBucket = nil
	var prev *refBucket
	for i := len(entries) - 1; i >= 0; i-- {
		e := entries[i]
		c := &refCounter{item: e.Item, count: e.Count, errVal: e.Err}
		s.counters[e.Item] = c
		if prev == nil || prev.count != e.Count {
			b := &refBucket{count: e.Count, members: make(map[*refCounter]struct{}), prev: prev}
			if prev != nil {
				prev.next = b
			} else {
				s.minBucket = b
			}
			prev = b
		}
		prev.members[c] = struct{}{}
		c.bucket = prev
	}
}

// AppendBinary serializes the summary: capacity, entry count, then every
// tracked entry in descending-count order (ties by item). A refSpaceSaving's
// observable behavior — counts, eviction victims, merge inheritance — is
// fully determined by its (item, count, err) multiset plus capacity, so
// this encoding is lossless even though the bucket list is not written.
func (s *refSpaceSaving) AppendBinary(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(s.capacity))
	entries := s.Top(len(s.counters))
	dst = binary.AppendUvarint(dst, uint64(len(entries)))
	for _, e := range entries {
		dst = binary.AppendUvarint(dst, uint64(len(e.Item)))
		dst = append(dst, e.Item...)
		dst = binary.AppendUvarint(dst, e.Count)
		dst = binary.AppendUvarint(dst, e.Err)
	}
	return dst
}

// TotalCount returns the sum of all tracked counts (≥ the number of
// additions routed to tracked items).
func (s *refSpaceSaving) TotalCount() uint64 {
	var t uint64
	for _, c := range s.counters {
		t += c.count
	}
	return t
}
