// Package df is the dataflow layer's unit-test fixture: small functions
// whose access, closure and allocation classifications the test asserts
// directly (no // want comments — this corpus tests the layer, not a pass).
package df

import "fmt"

type conf struct {
	A int
	B int
	C *int
}

func root() {
	helperA()
}

func helperA() {
	helperB()
}

func helperB() {}

func unreached() {}

func accesses(c conf) int {
	c.A = 0  // plain write
	c.B += 2 // compound: read + write
	return c.A + c.B
}

func wholeValue(c conf) {
	cc := c
	cc.C = nil
	fmt.Println(cc)
}

func sink(vs []int) []int { return vs }

func allocs(n int) []int {
	pre := make([]int, 0, n)
	pre = append(pre, n) // presized: not a site
	var grow []int
	grow = append(grow, n)       // growth site
	p := &conf{A: n}             // composite site
	s := []int{n}                // slice literal site
	f := func() int { return n } // capturing closure site
	_ = func() {}                // non-capturing: not a site
	var i interface{ M() }
	_ = i
	fmt.Println(n)         // interface conversion site (variadic ...any)
	m := map[int]int{n: n} // map literal site
	for k := range m {     // map range site
		_ = k
	}
	_ = p
	_ = f
	return sink(s)
}

type box struct{ v, w int }

func (b *box) codec() int { return b.hop() + freeHop(b) }

func (b *box) hop() int { return b.v }

func freeHop(b *box) int { return b.w }
