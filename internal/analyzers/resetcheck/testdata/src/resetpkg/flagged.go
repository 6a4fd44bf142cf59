package resetpkg

// ringStats mirrors the regression resetcheck exists for: the struct
// gained lastSeq after Reset was written, and Reset was left stale —
// exactly what deleting one assignment from network.Fabric.Reset or
// sim.Kernel.Reset looks like. The annotated name field shows the escape
// hatch for state that must survive.
type ringStats struct {
	count   int
	sum     int
	lastSeq uint64 // the field Reset forgot
	name    string //simlint:resetsafe immutable identity assigned at construction
}

func (r *ringStats) Reset() { // want "ringStats.lastSeq is not reset by Reset"
	r.count = 0
	r.sum = 0
}

// twoPhase shows the same hole through the unexported spelling: reset
// rewinds hot element-wise but never mentions cold.
type twoPhase struct {
	hot  []int
	cold []int
}

func (t *twoPhase) reset() { // want "twoPhase.cold is not reset by reset"
	for i := range t.hot {
		t.hot[i] = 0
	}
}

// bareSafe carries a resetsafe without a reason: like a reasonless
// allow, it exempts nothing.
type bareSafe struct {
	id int //simlint:resetsafe
}

func (b *bareSafe) Reset() {} // want "bareSafe.id is not reset by Reset"
