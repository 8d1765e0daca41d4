package main

import "reflect"

// Pinned outputs of the default seed at the pinned sizes: each trial's
// digest in pass order (convergence, UPDATEs sent and received, best-path
// changes and controller recomputes in the measured withdrawal, kernel
// events over the trial), Figure 2's fit as the reproduction pins it,
// and the fork set-up's snapshot size.
var pinnedDigests = map[string][]outcome{
	// SDN count 0, 4, 8, 12, 16; three runs each.
	"fig2-clique16": {
		{352108071933, 2625, 2625, 467, 0, 27586},
		{346901627464, 2548, 2548, 427, 0, 27359},
		{350283820015, 2427, 2427, 408, 0, 26988},
		{299740096928, 1520, 1762, 284, 280, 29128},
		{282237950150, 1428, 1714, 269, 250, 27946},
		{264803668874, 1362, 1540, 280, 245, 26830},
		{170395174090, 565, 669, 143, 167, 22081},
		{175543225802, 582, 674, 144, 176, 22418},
		{190183235715, 587, 691, 156, 182, 22631},
		{58144293632, 127, 95, 58, 40, 12783},
		{58413615070, 129, 83, 51, 41, 13238},
		{57991126187, 131, 84, 49, 44, 13444},
		{100000000, 0, 0, 0, 1, 338},
		{100000000, 0, 0, 0, 1, 338},
		{100000000, 0, 0, 0, 1, 338},
	},
	"vf-internet1000": {
		{102339779304, 2096, 4555, 2503, 123, 446624},
	},
	// Fork seeds 1001..1004.
	"fork-internet1000": {
		{160151872959, 4795, 4795, 3941, 0, 429639},
		{141922275732, 4850, 4850, 4001, 0, 370482},
		{165205522509, 5054, 5054, 4204, 0, 430416},
		{139157817211, 4451, 4451, 3660, 0, 369285},
	},
}

// pinnedFig2Fit is the reproduction's pinned Figure 2 result:
// pure-BGP median 350.284 s, slope -369.785 s per SDN fraction, r² 0.989.
var pinnedFig2Fit = fit{PureMedian: 350.284, Slope: -369.785, R2: 0.989}

const pinnedSnapshotBytes = 7772380

// pinnedOutcomes returns the pinned digests for w when run at its
// pinned size with the default seed.
func pinnedOutcomes(w *workload, sz size, seed int64) ([]outcome, fit, bool) {
	want, ok := pinnedDigests[w.name]
	if !ok || seed != defaultSeed || !reflect.DeepEqual(sz, w.pinned) {
		return nil, fit{}, false
	}
	return want, pinnedFig2Fit, true
}
