package rstar

import (
	"math"
	"slices"
)

// performSplit splits an overflowing node using the R*-tree topological
// split: choose the split axis by minimum total margin over all candidate
// distributions, then the distribution on that axis with minimum overlap
// (ties by minimum combined area). The node keeps the first group; the
// returned sibling holds the second.
//
// Both splits sort the node's entry slots by extracted keys (the permutation
// sort.Slice over the entries would make; see keyed) and read the rectangle
// of every candidate group from one prefix and one suffix sweep per sort
// (see sweepRects), visiting cuts in the order a per-cut rebuild would.
func (t *Tree) performSplit(n *node) *node {
	if n.leaf {
		return t.splitLeaf(n)
	}
	return t.splitInternal(n)
}

func (t *Tree) splitLeaf(n *node) *node {
	m := t.opts.MinEntries
	total := len(n.ids)
	dim := t.dim
	// Slot j's coordinates are n.entry(j): the mirror is in sync with ids
	// until the split rewrites them below.
	ks := t.slotKeys(total)
	corner := func(k int) (lo, hi []float32) {
		e := n.entry(int(ks[k].idx), dim)
		return e, e
	}

	bestAxis := -1
	var bestMargin float64
	// Choose axis: minimize the sum of margins over all distributions.
	for axis := 0; axis < dim; axis++ {
		sortKeys(ks, func(j int32) float32 { return n.coords[int(j)*dim+axis] })
		t.sweepRects(total, corner)
		margin := 0.0
		for cut := m; cut <= total-m; cut++ {
			margin += t.prefixRect(cut).Margin() + t.suffixRect(cut).Margin()
		}
		if bestAxis == -1 || margin < bestMargin {
			bestAxis, bestMargin = axis, margin
		}
	}

	// Choose index on the best axis: minimize overlap, ties by area.
	sortKeys(ks, func(j int32) float32 { return n.coords[int(j)*dim+bestAxis] })
	t.sweepRects(total, corner)
	bestCut := t.bestCut(m, total)

	ids := n.ids
	permute(ids, ks, &t.idTmp)
	siblingIDs := append([]int32(nil), ids[bestCut:]...)
	n.ids = ids[:bestCut]
	t.recomputeLeafRect(n)
	t.finalizeLeaf(n)
	sibling := &node{leaf: true, level: 0, ids: siblingIDs}
	t.recomputeLeafRect(sibling)
	t.finalizeLeaf(sibling)
	return sibling
}

func (t *Tree) splitInternal(n *node) *node {
	m := t.opts.MinEntries
	children := n.children
	total := len(children)
	ks := t.slotKeys(total)
	corner := func(k int) (lo, hi []float32) {
		r := children[ks[k].idx].rect
		return r.Min, r.Max
	}

	bestAxis, bestUpper := -1, false
	var bestMargin float64
	for axis := 0; axis < t.dim; axis++ {
		for _, upper := range [2]bool{false, true} {
			sortKeys(ks, faceKey(children, axis, upper))
			t.sweepRects(total, corner)
			margin := 0.0
			for cut := m; cut <= total-m; cut++ {
				margin += t.prefixRect(cut).Margin() + t.suffixRect(cut).Margin()
			}
			if bestAxis == -1 || margin < bestMargin {
				bestAxis, bestUpper, bestMargin = axis, upper, margin
			}
		}
	}

	sortKeys(ks, faceKey(children, bestAxis, bestUpper))
	t.sweepRects(total, corner)
	bestCut := t.bestCut(m, total)

	permute(children, ks, &t.nodeTmp)
	siblingChildren := append([]*node(nil), children[bestCut:]...)
	n.children = children[:bestCut]
	recomputeRect(n)
	sibling := &node{leaf: false, level: n.level, children: siblingChildren}
	recomputeRect(sibling)
	return sibling
}

// faceKey returns the split sort key of child j: its lower (or upper) face
// on axis.
func faceKey(children []*node, axis int, upper bool) func(j int32) float32 {
	if upper {
		return func(j int32) float32 { return children[j].rect.Max[axis] }
	}
	return func(j int32) float32 { return children[j].rect.Min[axis] }
}

// bestCut picks the distribution of the swept order with minimum overlap,
// ties by minimum combined area; the earliest cut wins exact ties.
func (t *Tree) bestCut(m, total int) int {
	bestCut := -1
	var bestOverlap, bestArea float64
	for cut := m; cut <= total-m; cut++ {
		r1, r2 := t.prefixRect(cut), t.suffixRect(cut)
		ov := r1.OverlapArea(r2)
		area := r1.Area() + r2.Area()
		if bestCut == -1 || ov < bestOverlap || (ov == bestOverlap && area < bestArea) {
			bestCut, bestOverlap, bestArea = cut, ov, area
		}
	}
	return bestCut
}

// slotKeys returns scratch keys naming the slots 0..n-1 in order.
func (t *Tree) slotKeys(n int) []keyed[float32] {
	ks := t.keyBuf32(n)
	for i := range ks {
		ks[i].idx = int32(i)
	}
	return ks
}

// sortKeys re-keys the slots in ks, keeping their current order as the
// starting sequence, and sorts them ascending by key with the permutation
// sort.Slice would apply to that sequence (see keyed).
func sortKeys(ks []keyed[float32], key func(j int32) float32) {
	for i := range ks {
		ks[i].key = key(ks[i].idx)
	}
	slices.SortFunc(ks, cmpKey[float32])
}

// sweepRects fills t.sweep with the bounding rectangle of every prefix and
// every suffix of a sequence of total boxes, where box k spans corner(k):
// prefix k covers boxes [0,k) and suffix k covers [k,total). One forward and
// one backward pass replace a rebuild per cut. Min and max are exact, so a
// swept rectangle has the same coordinates as a rebuilt one; only the sign
// of a zero coordinate may differ, which changes no margin, area or overlap
// comparison.
func (t *Tree) sweepRects(total int, corner func(k int) (lo, hi []float32)) {
	need := 2 * (total + 1) * 2 * t.dim
	if cap(t.sweep) < need {
		t.sweep = make([]float32, need)
	}
	t.sweep = t.sweep[:need]
	// The empty prefix and suffix start inverted, so the first expansion
	// copies the first box's corners exactly.
	for _, r := range [2]Rect{t.prefixRect(0), t.suffixRect(total)} {
		for i := range r.Min {
			r.Min[i], r.Max[i] = float32(math.Inf(1)), float32(math.Inf(-1))
		}
	}
	for k := 1; k <= total; k++ {
		lo, hi := corner(k - 1)
		t.prefixRect(k).expandFrom(t.prefixRect(k-1), lo, hi)
	}
	for k := total - 1; k >= 0; k-- {
		lo, hi := corner(k)
		t.suffixRect(k).expandFrom(t.suffixRect(k+1), lo, hi)
	}
}

// expandFrom sets r to src grown to cover the box [lo, hi].
func (r Rect) expandFrom(src Rect, lo, hi []float32) {
	copy(r.Min, src.Min)
	copy(r.Max, src.Max)
	r.ExpandInPlace(Rect{Min: lo, Max: hi})
}

// prefixRect is the swept rectangle of boxes [0,k), 0 ≤ k ≤ total.
func (t *Tree) prefixRect(k int) Rect {
	return t.sweptRect(k)
}

// suffixRect is the swept rectangle of boxes [k,total), 0 ≤ k ≤ total.
func (t *Tree) suffixRect(k int) Rect {
	return t.sweptRect(len(t.sweep)/(4*t.dim) + k)
}

func (t *Tree) sweptRect(i int) Rect {
	b := t.sweep[2*i*t.dim : 2*(i+1)*t.dim]
	return Rect{Min: b[:t.dim], Max: b[t.dim:]}
}
