package sketch

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// SpaceSaving is the stream-summary structure of Metwally, Agrawal and El
// Abbadi ("Efficient Computation of Frequent and Top-k Elements in Data
// Streams"), which Scrub uses for the TOP-K aggregate. It tracks at most
// `capacity` counters; when a new item arrives with all counters occupied,
// it evicts the minimum counter and inherits its count as overestimation
// error. Guarantees: count(x) <= trueCount(x) + min; every item with true
// count > N/capacity is present.
type SpaceSaving struct {
	capacity int
	// heap is a binary min-heap of the tracked counters ordered by
	// (count, item), so heap[0] is always the eviction victim: the
	// minimum count, ties broken by the lexicographically smallest item.
	// Identical streams therefore build identical summaries; a map-order
	// victim would make replays (and Engine vs ShardedEngine
	// comparisons) nondeterministic. An increment only moves its counter
	// down the heap, O(log capacity), and allocates nothing.
	heap []ssCounter
	// pos maps each tracked item to its index in heap.
	pos map[string]int
}

type ssCounter struct {
	item   string
	count  uint64
	errVal uint64 // overestimation inherited at takeover
}

// before is the heap order: ascending count, then ascending item.
func (c *ssCounter) before(o *ssCounter) bool {
	if c.count != o.count {
		return c.count < o.count
	}
	return c.item < o.item
}

// NewSpaceSaving creates a summary with the given counter capacity.
func NewSpaceSaving(capacity int) (*SpaceSaving, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("sketch: SpaceSaving capacity must be positive, got %d", capacity)
	}
	return &SpaceSaving{capacity: capacity, pos: make(map[string]int, capacity)}, nil
}

// MustSpaceSaving is NewSpaceSaving that panics on error.
func MustSpaceSaving(capacity int) *SpaceSaving {
	s, err := NewSpaceSaving(capacity)
	if err != nil {
		panic(err)
	}
	return s
}

// Capacity returns the maximum number of tracked items.
func (s *SpaceSaving) Capacity() int { return s.capacity }

// Len returns the number of currently tracked items.
func (s *SpaceSaving) Len() int { return len(s.heap) }

// Add increments item by one.
func (s *SpaceSaving) Add(item string) { s.AddN(item, 1) }

// AddN increments item by n.
func (s *SpaceSaving) AddN(item string, n uint64) {
	if n == 0 {
		return
	}
	if i, ok := s.pos[item]; ok {
		s.bump(i, n)
		return
	}
	s.insert(item, n)
}

// AddBytes increments the item spelled by b by one. A tracked item is
// found without converting b to a string, so callers can format items
// into a reused buffer; only an item that enters the summary is copied.
func (s *SpaceSaving) AddBytes(b []byte) {
	if i, ok := s.pos[string(b)]; ok {
		s.bump(i, 1)
		return
	}
	s.insert(string(b), 1)
}

func (s *SpaceSaving) bump(i int, n uint64) {
	s.heap[i].count += n
	s.down(i)
}

// insert adds an untracked item with count n. With every counter
// occupied, the minimum counter is evicted: the new item takes it over,
// inheriting its count as error.
func (s *SpaceSaving) insert(item string, n uint64) {
	if len(s.heap) < s.capacity {
		s.heap = append(s.heap, ssCounter{item: item, count: n})
		s.pos[item] = len(s.heap) - 1
		s.up(len(s.heap) - 1)
		return
	}
	v := &s.heap[0]
	delete(s.pos, v.item)
	v.errVal = v.count
	v.count += n
	v.item = item
	s.pos[item] = 0
	s.down(0)
}

func (s *SpaceSaving) swap(i, j int) {
	s.heap[i], s.heap[j] = s.heap[j], s.heap[i]
	s.pos[s.heap[i].item] = i
	s.pos[s.heap[j].item] = j
}

func (s *SpaceSaving) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !s.heap[i].before(&s.heap[p]) {
			return
		}
		s.swap(i, p)
		i = p
	}
}

func (s *SpaceSaving) down(i int) {
	for {
		m := i
		if l := 2*i + 1; l < len(s.heap) && s.heap[l].before(&s.heap[m]) {
			m = l
		}
		if r := 2*i + 2; r < len(s.heap) && s.heap[r].before(&s.heap[m]) {
			m = r
		}
		if m == i {
			return
		}
		s.swap(i, m)
		i = m
	}
}

// Entry is one reported heavy hitter. Count overestimates the true count by
// at most Err.
type Entry struct {
	Item  string
	Count uint64
	Err   uint64
}

// Top returns the k highest-count entries, ties broken by item for
// determinism.
func (s *SpaceSaving) Top(k int) []Entry {
	all := make([]Entry, len(s.heap))
	for i, c := range s.heap {
		all[i] = Entry{Item: c.item, Count: c.count, Err: c.errVal}
	}
	sortEntries(all)
	if k < len(all) {
		all = all[:k]
	}
	return all
}

// Count returns the (over)estimate for an item and whether it is tracked.
func (s *SpaceSaving) Count(item string) (uint64, bool) {
	i, ok := s.pos[item]
	if !ok {
		return 0, false
	}
	return s.heap[i].count, true
}

// Merge folds another summary into s using the mergeable-summaries
// algorithm for SpaceSaving: counts and errors for common items add; an
// item tracked by only one full summary may still have occurred up to
// the other summary's minimum count times there, so it inherits that
// minimum as both count and overestimation error (absence from a
// below-capacity summary means a true zero and inherits nothing). The
// merged items are ranked by count and the top `capacity` survive. This
// keeps both sides of the SpaceSaving guarantee sound after any merge
// tree: trueCount(x) <= Count(x) and Count(x) − Err(x) <= trueCount(x).
func (s *SpaceSaving) Merge(o *SpaceSaving) {
	if o == nil || o.Len() == 0 {
		return
	}
	minS := s.minInheritance()
	minO := o.minInheritance()
	merged := make(map[string]Entry, len(s.heap)+len(o.heap))
	for _, c := range s.heap {
		merged[c.item] = Entry{Item: c.item, Count: c.count, Err: c.errVal}
	}
	for _, c := range o.heap {
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
			if _, inO := o.pos[item]; !inO {
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
	sortEntries(all)
	if len(all) > s.capacity {
		all = all[:s.capacity]
	}
	s.rebuild(all)
}

// sortEntries orders entries by descending count, ties by item.
func sortEntries(all []Entry) {
	sort.Slice(all, func(i, j int) bool {
		if all[i].Count != all[j].Count {
			return all[i].Count > all[j].Count
		}
		return all[i].Item < all[j].Item
	})
}

// minInheritance returns the count an untracked item could have reached
// in this summary: the minimum tracked count when at capacity, else 0
// (a below-capacity summary tracks everything it has ever seen).
func (s *SpaceSaving) minInheritance() uint64 {
	if len(s.heap) < s.capacity {
		return 0
	}
	return s.heap[0].count
}

// rebuild replaces the summary's contents with entries, in any order,
// and restores the heap order.
func (s *SpaceSaving) rebuild(entries []Entry) {
	s.heap = make([]ssCounter, len(entries))
	s.pos = make(map[string]int, s.capacity)
	for i, e := range entries {
		s.heap[i] = ssCounter{item: e.Item, count: e.Count, errVal: e.Err}
		s.pos[e.Item] = i
	}
	for i := len(s.heap)/2 - 1; i >= 0; i-- {
		s.down(i)
	}
}

// AppendBinary serializes the summary: capacity, entry count, then every
// tracked entry in descending-count order (ties by item). A SpaceSaving's
// observable behavior — counts, eviction victims, merge inheritance — is
// fully determined by its (item, count, err) multiset plus capacity, so
// this encoding is lossless even though the heap layout is not written.
func (s *SpaceSaving) AppendBinary(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(s.capacity))
	entries := s.Top(len(s.heap))
	dst = binary.AppendUvarint(dst, uint64(len(entries)))
	for _, e := range entries {
		dst = binary.AppendUvarint(dst, uint64(len(e.Item)))
		dst = append(dst, e.Item...)
		dst = binary.AppendUvarint(dst, e.Count)
		dst = binary.AppendUvarint(dst, e.Err)
	}
	return dst
}

// DecodeSpaceSaving parses a summary serialized by AppendBinary, returning
// bytes consumed. The decoded summary behaves identically to the encoded
// one: rebuild reconstructs the heap from the entries.
func DecodeSpaceSaving(b []byte) (*SpaceSaving, int, error) {
	capacity, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, 0, fmt.Errorf("sketch: decode SpaceSaving: bad capacity")
	}
	cnt, sz := binary.Uvarint(b[n:])
	if sz <= 0 {
		return nil, 0, fmt.Errorf("sketch: decode SpaceSaving: bad entry count")
	}
	n += sz
	if cnt > capacity || cnt > uint64(len(b)) {
		return nil, 0, fmt.Errorf("sketch: decode SpaceSaving: implausible entry count %d (capacity %d)", cnt, capacity)
	}
	s, err := NewSpaceSaving(int(capacity))
	if err != nil {
		return nil, 0, err
	}
	entries := make([]Entry, 0, cnt)
	for i := uint64(0); i < cnt; i++ {
		ln, sz := binary.Uvarint(b[n:])
		if sz <= 0 {
			return nil, 0, fmt.Errorf("sketch: decode SpaceSaving: bad item length")
		}
		n += sz
		if uint64(len(b)-n) < ln {
			return nil, 0, fmt.Errorf("sketch: decode SpaceSaving: short item")
		}
		item := string(b[n : n+int(ln)])
		n += int(ln)
		count, sz := binary.Uvarint(b[n:])
		if sz <= 0 {
			return nil, 0, fmt.Errorf("sketch: decode SpaceSaving: bad count")
		}
		n += sz
		errVal, sz := binary.Uvarint(b[n:])
		if sz <= 0 {
			return nil, 0, fmt.Errorf("sketch: decode SpaceSaving: bad err")
		}
		n += sz
		entries = append(entries, Entry{Item: item, Count: count, Err: errVal})
	}
	if len(entries) > 0 {
		s.rebuild(entries)
		if len(s.pos) != len(s.heap) {
			return nil, 0, fmt.Errorf("sketch: decode SpaceSaving: duplicate item")
		}
	}
	return s, n, nil
}

// TotalCount returns the sum of all tracked counts (≥ the number of
// additions routed to tracked items).
func (s *SpaceSaving) TotalCount() uint64 {
	var t uint64
	for _, c := range s.heap {
		t += c.count
	}
	return t
}
