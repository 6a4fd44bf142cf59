package hot

// pool's push exercises every pattern the analyzer allows; the fixture
// fails if any draws a diagnostic.
type pool struct {
	arena []int
	free  []int
}

//simlint:hotpath
func (p *pool) push(vals []int, v int) []int {
	p.arena = append(p.arena, v) // receiver-rooted
	vals = append(vals, v)       // parameter-rooted
	fl := &p.free
	*fl = append(*fl, v)   // rooted through a local alias
	buf := grow(p.free, v) // append-style call: result stays rooted
	buf = append(buf, v)
	p.free = buf
	func() { v++ }() // immediately invoked literal
	add := func(d int) { v += d }
	add(1) // call-only local literal (the routing engine's consider pattern)
	add(2)
	_ = "hot" + "path" // constant-folded: no allocation
	return vals
}

func grow(buf []int, v int) []int { return append(buf, v) }
