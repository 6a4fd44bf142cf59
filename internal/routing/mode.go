// Package routing implements Aries adaptive routing: minimal and Valiant
// non-minimal path construction over the dragonfly, and the four adaptive
// modes (ADAPTIVE_0..3) that bias the per-packet minimal/non-minimal choice
// using the shift+add scheme the paper describes (Section II-D).
package routing

import "fmt"

// Mode is one of the four Aries adaptive routing control modes.
//
// Software selects a mode per posted message (the Cray MPI environment
// variables MPICH_GNI_ROUTING_MODE and MPICH_GNI_A2A_ROUTING_MODE); the
// router then compares the estimated load on candidate minimal paths
// against biased load on candidate non-minimal paths.
type Mode uint8

// The four adaptive modes. AD0 is the Aries factory default; the paper's
// conclusion is that AD3 should be (and at ALCF/NERSC now is) the default.
const (
	// AD0 compares minimal and non-minimal load with equal bias.
	AD0 Mode = iota
	// AD1 is "increasingly minimal bias": the minimal preference grows as
	// a packet takes more hops. It is the Cray MPI default for
	// MPI_Alltoall[v]. Its shift is 1 plus the hops already taken,
	// capped at 4; the fabric routes once, at injection, so there it is
	// shift 1 (between AD0 and AD3).
	AD1
	// AD2 is weak minimal bias: add 4, no shift.
	AD2
	// AD3 is strong minimal bias: shift 2, i.e. minimal-path load must
	// exceed 4x the non-minimal load before a non-minimal path is taken.
	AD3
	// NumModes is the adaptive mode count, for tables indexed by Mode.
	NumModes
)

// Non-adaptive baseline policies (outside the Aries preset table; used by
// ablation studies to bound the adaptive modes from both sides, as in Kim
// et al.'s original dragonfly evaluation).
const (
	// MinimalOnly always routes minimally (MIN).
	MinimalOnly Mode = 100 + iota
	// ValiantOnly always routes non-minimally when a Valiant path
	// exists (VAL).
	ValiantOnly
)

// String returns the paper's name for the mode, e.g. "AD3".
func (m Mode) String() string {
	switch {
	case m < NumModes:
		return fmt.Sprintf("AD%d", uint8(m))
	case m == MinimalOnly:
		return "MIN"
	case m == ValiantOnly:
		return "VAL"
	}
	return fmt.Sprintf("Mode(%d)", uint8(m))
}

// Bias returns the (shift, add) parameters applied to the non-minimal load
// before comparison, for a packet that has already taken hopsTaken hops:
// a minimal path is chosen iff
//
//	minLoad <= (nonMinLoad << shift) + add
//
// so larger shift/add push the choice toward minimal routes. Only AD1
// depends on hopsTaken: its shift is min(1+hopsTaken, maxAD1Shift).
func (m Mode) Bias(hopsTaken int) (shift, add uint) {
	switch m {
	case AD0:
		return 0, 0
	case AD1:
		return uint(min(1+hopsTaken, maxAD1Shift)), 0
	case AD2:
		return 0, 4
	case AD3:
		return 2, 0
	}
	return 0, 0
}

// maxAD1Shift caps AD1's per-hop bias growth.
const maxAD1Shift = 4

// PrefersMinimal applies the Aries bias rule: true means take the minimal
// path given the two load estimates (in flits) for a packet that has
// already taken hopsTaken hops.
func (m Mode) PrefersMinimal(minLoad, nonMinLoad, hopsTaken int) bool {
	shift, add := m.Bias(hopsTaken)
	return minLoad <= nonMinLoad<<shift+int(add)
}

// ParseMode converts "AD0".."AD3" (or "0".."3") to a Mode.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "AD0", "ADAPTIVE_0", "0":
		return AD0, nil
	case "AD1", "ADAPTIVE_1", "1":
		return AD1, nil
	case "AD2", "ADAPTIVE_2", "2":
		return AD2, nil
	case "AD3", "ADAPTIVE_3", "3":
		return AD3, nil
	}
	return AD0, fmt.Errorf("routing: unknown mode %q", s)
}
