package experiments

import (
	"repro/internal/apps"
)

// Fig4CoriGroupsSpanned reproduces the paper's Fig. 4: the same
// groups-spanned study for MILC on Cori, whose reduced bisection (4
// cables per group pair vs Theta's 12) makes minimal bias matter even at
// the large size. The result type is shared with Fig. 3.
func Fig4CoriGroupsSpanned(p Profile, seed int64) (*Fig3Result, error) {
	ms, err := p.coriPool()
	if err != nil {
		return nil, err
	}
	return groupsSpannedStudy(ms, "Fig. 4", "Cori", p, []apps.App{apps.MILC{}},
		[]int{p.NodesSmall, p.CoriNodesMedium, p.NodesLarge}, seed)
}
