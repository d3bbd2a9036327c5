// Package hotpath is golden-test input for the hotpath analyzer: each
// `// want` comment is a regexp one diagnostic on that line must match.
package hotpath

import "fmt"

type iface interface{ M() }

type ptrShaped struct{ p *int } // single pointer field: stored in the iface word

func (ptrShaped) M() {}

type fatStruct struct{ a, b int }

func (fatStruct) M() {}

func sink(i iface)       {}
func variadic(xs ...int) {}
func use(args ...any)    { _ = args }
func helper() []int      { return mk() }
func mk() []int          { return make([]int, 4) } // want `make allocates`

//scrub:allowalloc(slow path: exercised only at startup)
func coldInit() map[string]int { return map[string]int{"a": 1} }

// box is generic: a call through an instantiation is checked as the
// declaration.
type box[T any] struct{ xs []T }

func (b *box[T]) grow() []T { return make([]T, 4) } // want `make allocates`

//scrub:hotpath
func Hot(buf []byte, xs []int, s string, p ptrShaped, f fatStruct, idx map[string]int) []byte {
	m := make(map[string]int) // want `make allocates`
	_ = m
	n := new(int) // want `new allocates`
	_ = n
	sl := []int{1, 2, 3} // want `slice literal allocates`
	_ = sl
	ml := map[int]int{} // want `map literal allocates`
	_ = ml
	pp := &fatStruct{a: 1} // want `&composite literal escapes`
	_ = pp
	fn := func() {} // want `function literal allocates a closure`
	fn()
	go use()           // want `go statement allocates a goroutine`
	s2 := s + "suffix" // want `string concatenation allocates`
	_ = s2
	bs := []byte(s) // want `conversion copies and allocates`
	_ = bs
	_ = idx[string(buf)]                 // ok: a read-only map index converts in place
	if _, ok := idx[(string(buf))]; ok { // ok: the comma-ok form too
		_ = string(buf) == s // ok: so does an ==/!= operand
	}
	idx[string(buf)] = 1 // want `conversion copies and allocates`
	idx[string(buf)]++   // want `conversion copies and allocates`
	_ = string(buf) + s  // want `conversion copies and allocates` `string concatenation allocates`
	var bx box[int]
	_ = bx.grow()
	fmt.Println(s)     // want `fmt.Println allocates`
	xs = append(xs, 1) // ok: self-assign reuse idiom
	_ = xs
	ys := append(xs, 2) // want `append may grow and allocate`
	_ = ys
	variadic(1, 2, 3) // want `variadic call allocates its argument slice`
	sink(p)           // ok: pointer-shaped value boxes without allocating
	sink(f)           // want `boxes non-pointer-shaped`
	_ = helper()      // transitive: helper -> mk is checked above
	_ = coldInit()    // ok: //scrub:allowalloc function, not traversed
	//scrub:allowalloc(suppressed for the golden test)
	z := make([]int, 8) // ok: line-level escape hatch
	_ = z
	return appendHeader(buf)
}

// appendHeader is reached transitively from Hot; the builder idiom
// (return append(param, …)) is allowed.
func appendHeader(dst []byte) []byte {
	return append(dst, 0x1)
}
