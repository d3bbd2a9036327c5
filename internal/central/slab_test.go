package central

import "testing"

// TestSlabSlackAndIsolation pins the slab's two promises: what it hands
// out never moves or overlaps (an append to one carve reallocates rather
// than overwrite the next), and the unused tail of its current chunk
// stays within an eighth of what it has handed out (past the first
// chunk) — window state is most of central's live heap.
func TestSlabSlackAndIsolation(t *testing.T) {
	var s slab[int]
	var carves [][]int
	for i := 0; i < 5000; i++ {
		c := s.take(1 + i%3)
		for j := range c {
			c[j] = i
		}
		carves = append(carves, c)
		if slack := cap(s.chunk) - len(s.chunk); slack > max(minSlabChunk, s.total/8) {
			t.Fatalf("after %d elements: %d unused in the current chunk", s.total, slack)
		}
	}
	carves[0] = append(carves[0], -1)[:len(carves[0])]
	for i, c := range carves {
		for _, v := range c {
			if v != i {
				t.Fatalf("carve %d was overwritten: %v", i, c)
			}
		}
	}
}
