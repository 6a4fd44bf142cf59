// Package stale is a simlint fixture: two allow directives on a map
// range that no analyzer flags (the package is outside detrand's scope
// and nothing renders from it), and two directives of the retired
// hotpath analyzer. The allow naming a live analyzer is silent; the one
// naming an analyzer outside the suite is a finding, and so is each
// directive whose verb no analyzer reads.
package stale

func sum(m map[string]int) int {
	t := 0
	//simlint:allow detrand order-insensitive sum
	for _, v := range m { //simlint:allow detflow retired analyzer name
		t += v
	}
	return t
}

//simlint:hotpath
func hot() int { return 1 }

//simlint:cold x
func cold() int { return hot() }
