// Package hotpath seeds every class of //kshape:hotpath contract
// violation next to the shapes the analyzer must accept: allocation
// (builtins, literals, boxing, string work), blocking (channels, locks),
// dynamic dispatch, escape heuristics, transitive propagation through
// un-annotated callees, trust of annotated callees, and reasoned
// suppression. Un-annotated functions are never checked at their own
// declarations — only through annotated callers.
package hotpath

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

//kshape:hotpath
func builtins(m map[string]int, ch chan int, xs []float64) []float64 {
	buf := make([]float64, 8) // want "\[hotpath\] make allocates"
	_ = new(int)              // want "\[hotpath\] new allocates"
	xs = append(xs, 1)        // want "\[hotpath\] append may grow its backing array"
	delete(m, "k")            // want "\[hotpath\] map write \(delete\)"
	close(ch)                 // want "\[hotpath\] channel close"
	println("x")              // want "\[hotpath\] println writes to stderr"
	_ = buf
	return xs
}

//kshape:hotpath
func panics(n int) {
	if n < 0 {
		// Sprintf on the dying invariant path is exempt: it runs once, on
		// the way to a crash.
		panic(fmt.Sprintf("hotpath: negative n %d", n))
	}
	panic("always") // want "\[hotpath\] unguarded panic"
}

//kshape:hotpath
func boxing(n int, xs []float64) interface{} {
	var i interface{} = n // want "\[hotpath\] declaration boxes int into interface"
	_ = i
	var sink interface{}
	sink = xs // want "\[hotpath\] assignment boxes \[\]float64 into interface"
	_ = sink
	take(n)                // want "\[hotpath\] argument boxes int into interface"
	return interface{}(xs) // want "\[hotpath\] conversion boxes \[\]float64 into interface"
}

func take(v interface{}) { _ = v }

//kshape:hotpath
func conversions(bs []byte, s string) (string, []byte) {
	t := string(bs) // want "\[hotpath\] slice-to-string conversion copies and allocates"
	b := []byte(s)  // want "\[hotpath\] string-to-slice conversion copies and allocates"
	return t, b
}

//kshape:hotpath
func formats(xs []float64) {
	// One line, three findings: the materialized variadic slice, the
	// boxed argument, and the banned fmt call itself.
	fmt.Println(xs) // want "\[hotpath\] variadic call materializes its argument slice" "\[hotpath\] argument boxes \[\]float64 into interface" "\[hotpath\] fmt\.Println formats and allocates"
}

//kshape:hotpath
func spread(vs []interface{}) {
	sink2(vs...) // spreading an existing slice materializes nothing
}

func sink2(vs ...interface{}) {}

//kshape:hotpath
func dispatch(s fmt.Stringer, f func() int) int {
	_ = s.String() // want "\[hotpath\] dynamic dispatch through interface method String"
	return f()     // want "\[hotpath\] indirect call through a function value"
}

//kshape:hotpath
func literals(xs []float64) float64 {
	f := func(v float64) float64 { return v * 2 } // want "\[hotpath\] function literal allocates a closure"
	_ = f
	total := func() float64 { // immediately invoked: no closure escape
		t := 0.0
		for _, v := range xs {
			t += v
		}
		return t
	}()
	return total
}

type pair struct{ a, b int }

//kshape:hotpath
func composites() int {
	xs := []int{1, 2, 3}        // want "\[hotpath\] slice literal allocates"
	m := map[string]int{"a": 1} // want "\[hotpath\] map literal allocates"
	s := &pair{1, 2}            // want "\[hotpath\] &fix/hotpath\.pair literal allocates"
	v := pair{3, 4}             // plain struct literal is a stack value
	return xs[0] + m["a"] + s.a + v.b
}

//kshape:hotpath
func addresses(n int64) *int64 {
	var acc int64
	atomic.AddInt64(&acc, n) // &acc straight into a sync/atomic call is sanctioned
	p := &acc                // want "\[hotpath\] address of local acc may force a heap escape"
	return p
}

//kshape:hotpath
func mapAccess(m map[string]int) int {
	m["k"] = 1    // want "\[hotpath\] map write in a hot-path function"
	m["k"]++      // want "\[hotpath\] map write in a hot-path function"
	return m["k"] // map reads are allocation-free
}

//kshape:hotpath
func concat(a, b string) string {
	const pre = "k" + "shape" // constant-folded concatenation is free
	c := a + b                // want "\[hotpath\] string concatenation allocates"
	c += a                    // want "\[hotpath\] string concatenation allocates"
	return pre + c            // want "\[hotpath\] string concatenation allocates"
}

//kshape:hotpath
func blocking(ch chan int, done chan struct{}) {
	ch <- 1  // want "\[hotpath\] channel send may block"
	<-ch     // want "\[hotpath\] channel receive may block"
	select { // want "\[hotpath\] select statement may block"
	case <-done: // want "\[hotpath\] channel receive may block"
	default:
	}
	go drain(ch)    // want "\[hotpath\] go statement spawns a goroutine"
	defer drain(ch) // want "\[hotpath\] defer in a hot-path function"
}

func drain(ch chan int) {
	for range ch {
	}
}

//kshape:hotpath
func locks(mu *sync.Mutex, ints []int) {
	mu.Lock()        // want "\[hotpath\] sync\.Mutex\.Lock: mutex/pool/once operations block or allocate"
	sort.Ints(ints)  // want "\[hotpath\] call into package sort, which is not on the hot-path allowlist"
	mu.Unlock()      // want "\[hotpath\] sync\.Mutex\.Unlock"
	_ = math.Sqrt(2) // math is on the allowlist
}

// mid and deep are un-annotated: their violations must surface at the
// annotated call site below, with the deep position named in the message.
func mid(n int) []float64 {
	return deep(n)
}

func deep(n int) []float64 {
	out := make([]float64, n)
	return append(out, 1)
}

//kshape:hotpath
func transitive(n int) []float64 {
	return mid(n) // want "call to mid reaches a hot-path violation: make allocates" "call to mid reaches a hot-path violation: append may grow its backing array"
}

// pingPongA and pingPongB are mutually recursive and un-annotated: the
// cycle must terminate the transitive walk while still surfacing the
// allocation inside it once.
func pingPongA(n int) int {
	if n == 0 {
		return 0
	}
	return pingPongB(n - 1)
}

func pingPongB(n int) int {
	buf := make([]int, 1)
	return pingPongA(n) + buf[0]
}

//kshape:hotpath
func cyclic(n int) int {
	return pingPongA(n) // want "call to pingPongA reaches a hot-path violation: make allocates"
}

//kshape:hotpath
func recurse(n int) int {
	if n <= 1 {
		return 1
	}
	return n * recurse(n-1) // annotated self-recursion is trusted at the call site
}

//kshape:hotpath
func trusted(xs []float64) float64 {
	return kernel(xs) // annotated callees are trusted at the call site
}

//kshape:hotpath
func kernel(xs []float64) float64 {
	t := 0.0
	for _, v := range xs {
		t += v * v
	}
	return t
}

//kshape:hotpath
func suppressed(n int) []float64 {
	//lint:ignore hotpath the caller amortizes this one-time buffer build
	return make([]float64, n)
}

//kshape:hotpath
func clean(xs []float64, q *pair) float64 {
	total := 0.0
	for i := range xs {
		total += xs[i] * float64(i) // numeric conversions are free
	}
	total += math.Sqrt(total)
	v := pair{1, 2} // struct value stays on the stack
	q.a = v.a       // field writes through a pointer are plain stores
	return total
}

// cycA and cycB form an un-annotated cycle entered by two hot roots.
// Whichever root the walk reaches first, the other must still see the
// allocation inside the cycle: the closure is shared per strongly
// connected component, not memoized while a cycle peer is unfinished.
func cycA(n int) int {
	buf := make([]int, 1)
	if n == 0 {
		return buf[0]
	}
	return cycB(n - 1)
}

func cycB(n int) int {
	return cycA(n)
}

//kshape:hotpath
func cycleRootA(n int) int {
	return cycA(n) // want "call to cycA reaches a hot-path violation: make allocates"
}

//kshape:hotpath
func cycleRootB(n int) int {
	return cycB(n) // want "call to cycB reaches a hot-path violation: make allocates"
}
