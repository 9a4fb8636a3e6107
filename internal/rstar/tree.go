package rstar

import (
	"fmt"
	"math"
	"slices"

	"dblsh/internal/vec"
)

// Default node capacities. 32 entries per node is a good fit for in-memory
// trees over 10–12 dimensional points.
const (
	DefaultMaxEntries = 32
	reinsertFraction  = 0.3 // R* "p": share of entries force-reinserted on first overflow
)

// Options configures a Tree.
type Options struct {
	// MaxEntries is the node capacity M (≥ 4). Defaults to DefaultMaxEntries.
	MaxEntries int
	// MinEntries is the minimum fill m (2 ≤ m ≤ M/2). Defaults to 40% of M,
	// the value recommended in the R*-tree paper.
	MinEntries int
	// Quantize maintains an int8 affine-quantized twin of every leaf's
	// coordinate mirror (node.qcoords), refitted per leaf against its own
	// value range on every leaf mutation. The cursor uses it as a
	// certain-exclusion pre-test: an entry whose quantized coordinate is
	// provably outside the window even after the quantization error bound
	// is skipped without touching its float32 coordinates, and everything
	// else falls through to the exact test — the emitted stream is
	// identical either way.
	Quantize bool
}

func (o Options) withDefaults() Options {
	if o.MaxEntries == 0 {
		o.MaxEntries = DefaultMaxEntries
	}
	if o.MaxEntries < 4 {
		o.MaxEntries = 4
	}
	if o.MinEntries == 0 {
		o.MinEntries = o.MaxEntries * 2 / 5
	}
	if o.MinEntries < 2 {
		o.MinEntries = 2
	}
	if o.MinEntries > o.MaxEntries/2 {
		o.MinEntries = o.MaxEntries / 2
	}
	return o
}

type node struct {
	rect     Rect
	children []*node // internal nodes only
	ids      []int32 // leaf entries: row indices into the tree's data matrix
	// coords mirrors the leaf entries' coordinates contiguously (entry j is
	// coords[j*dim : (j+1)*dim]), so a leaf scan reads ~len(ids)·dim·4
	// sequential bytes instead of chasing len(ids) random matrix rows —
	// the traversal's dominant cache cost. Maintained by every leaf
	// mutation; always non-nil in the sense that len(coords) == len(ids)·dim.
	coords []float32
	leaf   bool
	level  int // 0 = leaf
	// sortAxis is the axis the leaf's entries are kept sorted by (ascending,
	// ties by id) — chosen as the leaf rect's widest axis whenever the id set
	// is rebuilt wholesale, and preserved by in-place sorted insertion. The
	// cursor exploits the order to turn the window test on this axis into a
	// positional span (see Cursor.NextBatch).
	sortAxis uint16
	// keys duplicates the sort-axis coordinate of each entry contiguously
	// (keys[j] == coords[j*dim+sortAxis]), so the span binary search touches
	// two or three cache lines instead of one strided line per probe.
	keys []float32
	// qcoords is the int8 affine-quantized twin of coords (same layout, ¼
	// the bytes: a whole leaf's codes fit in a couple of cache lines), with
	// coords[i] ≈ qoff + qscale·qcoords[i] to within qscale/2 plus float
	// rounding. Present only when Options.Quantize is set; nil otherwise.
	// Aliasing contract: qcoords never aliases coords or the tree's data
	// matrix — it is refitted wholesale (quantizeLeaf) by every mutation
	// that touches coords, so within any span where the tree is unmutated
	// the twin is consistent with the mirror (CheckInvariants verifies the
	// error bound). qscale == 0 means the leaf's values span no range (or
	// the leaf is empty) and the twin carries no information.
	qcoords []int8
	qscale  float32
	qoff    float32
}

// entry returns the coordinates of the leaf's j-th entry from the
// cache-contiguous mirror.
func (n *node) entry(j, dim int) []float32 {
	return n.coords[j*dim : (j+1)*dim]
}

func (n *node) entryCount() int {
	if n.leaf {
		return len(n.ids)
	}
	return len(n.children)
}

// Tree is an R*-tree over the rows of a point matrix. The matrix is owned by
// the caller and must not shrink while the tree is alive; rows appended after
// construction can be indexed with Insert.
//
// Tree is not safe for concurrent mutation; concurrent read-only queries are
// safe.
type Tree struct {
	data *vec.Matrix
	opts Options
	root *node
	size int
	dim  int

	// version counts structural mutations. Cursors pin a traversal snapshot
	// of the node graph; they compare versions to detect that the snapshot
	// went stale and must be re-armed (see Cursor.Synced).
	version uint64

	// reinserted has bit l set once level l did a forced reinsert during
	// the current insertion (R* performs at most one per level). A tree of
	// 64 levels would need more than 2^64 entries, so one word suffices.
	reinserted uint64

	// Write-path scratch, reused across inserts and splits so the
	// choose-subtree and split paths allocate nothing. The tree is not safe
	// for concurrent mutation, so one set per tree suffices.
	enl     Rect             // bestChild's enlarged rectangle
	center  []float32        // forceReinsert's node centre
	path    []*node          // descend's root-to-target path
	sweep   []float32        // split prefix/suffix rectangles (see sweepRects)
	idTmp   []int32          // leaf id reorder buffer
	nodeTmp []*node          // internal-node children reorder buffer
	keys32  []keyed[float32] // axis sort keys
	keys64  []keyed[float64] // reinsert distance keys
}

// New creates an empty R*-tree over data's rows. No rows are indexed yet;
// call Insert per row, or use BulkLoad to build a populated tree directly.
func New(data *vec.Matrix, opts Options) *Tree {
	if data.Dim() < 1 {
		panic("rstar: data must have at least one dimension")
	}
	return &Tree{
		data:   data,
		opts:   opts.withDefaults(),
		dim:    data.Dim(),
		root:   &node{leaf: true, rect: emptyRect(data.Dim())},
		enl:    emptyRect(data.Dim()),
		center: make([]float32, data.Dim()),
	}
}

func emptyRect(dim int) Rect {
	return Rect{Min: make([]float32, dim), Max: make([]float32, dim)}
}

// Size returns the number of indexed points.
func (t *Tree) Size() int { return t.size }

// Dim returns the dimensionality of indexed points.
func (t *Tree) Dim() int { return t.dim }

// Height returns the number of levels (1 for a tree that is just a leaf).
func (t *Tree) Height() int { return t.root.level + 1 }

// Bounds returns the minimum bounding rectangle of all indexed points.
// For an empty tree the zero rectangle at the origin is returned.
func (t *Tree) Bounds() Rect { return t.root.rect.clone() }

// point returns the coordinates of entry id.
func (t *Tree) point(id int32) []float32 { return t.data.Row(int(id)) }

// Insert indexes row id of the data matrix using R* insertion with forced
// reinsertion.
func (t *Tree) Insert(id int) {
	if id < 0 || id >= t.data.Rows() {
		panic(fmt.Sprintf("rstar: insert id %d out of range [0,%d)", id, t.data.Rows()))
	}
	t.reinserted = 0
	t.insertPoint(int32(id))
	t.size++
	t.version++
}

// Version returns the tree's structural mutation counter. It changes on
// every Insert (splits and reinsertions rearrange nodes a cursor may hold),
// so a cursor created at one version must be re-armed before advancing once
// the versions disagree.
func (t *Tree) Version() uint64 { return t.version }

func (t *Tree) insertPoint(id int32) {
	p := t.point(id)
	// The degenerate rectangle aliases the data row; nothing below writes
	// through r (expandPath clones it when it becomes a node's rect).
	r := Rect{Min: p, Max: p}
	path := t.descend(r, 0)
	leafN := path[len(path)-1]
	wasEmpty := len(leafN.ids) == 0

	// Insert at the position that keeps the leaf sorted by its sort axis
	// (ties after equals, then by id — any stable deterministic rule works;
	// the cursor only needs the stored order to be non-decreasing).
	ax := int(leafN.sortAxis)
	v := p[ax]
	i, j := 0, len(leafN.ids)
	for i < j {
		h := int(uint(i+j) >> 1)
		if w := leafN.keys[h]; w < v || (w == v && leafN.ids[h] < id) {
			i = h + 1
		} else {
			j = h
		}
	}
	pos := i
	leafN.ids = append(leafN.ids, 0)
	copy(leafN.ids[pos+1:], leafN.ids[pos:])
	leafN.ids[pos] = id
	leafN.keys = append(leafN.keys, 0)
	copy(leafN.keys[pos+1:], leafN.keys[pos:])
	leafN.keys[pos] = v
	leafN.coords = append(leafN.coords, p...)
	copy(leafN.coords[(pos+1)*t.dim:], leafN.coords[pos*t.dim:len(leafN.coords)-t.dim])
	copy(leafN.coords[pos*t.dim:(pos+1)*t.dim], p)
	t.quantizeLeaf(leafN)

	t.expandPath(path, r, wasEmpty)
	t.handleOverflow(path)
}

// finalizeLeaf (re)establishes the leaf scan layout after its id set changed
// wholesale: the sort axis is re-chosen as the widest axis of the leaf's
// rect (which callers must have recomputed tightly first), the ids are
// sorted by that axis (ties by id), and the contiguous coordinate mirror is
// rebuilt to match.
func (t *Tree) finalizeLeaf(n *node) {
	axis := 0
	if len(n.ids) > 0 {
		widest := n.rect.Max[0] - n.rect.Min[0]
		for d := 1; d < t.dim; d++ {
			if e := n.rect.Max[d] - n.rect.Min[d]; e > widest {
				widest, axis = e, d
			}
		}
	}
	n.sortAxis = uint16(axis)
	// (value, id) is a total order on a leaf's distinct ids, so the result
	// does not depend on the sort algorithm.
	ks := t.keyBuf32(len(n.ids))
	for i, id := range n.ids {
		ks[i] = keyed[float32]{t.point(id)[axis], id}
	}
	slices.SortFunc(ks, func(a, b keyed[float32]) int {
		if c := cmpKey(a, b); c != 0 {
			return c
		}
		return int(a.idx) - int(b.idx)
	})
	for i := range ks {
		n.ids[i] = ks[i].idx
	}
	t.rebuildLeafCoords(n)
}

// rebuildLeafCoords refreshes a leaf's contiguous coordinate mirror after
// its id set was reordered or cut.
func (t *Tree) rebuildLeafCoords(n *node) {
	n.coords = n.coords[:0]
	n.keys = n.keys[:0]
	ax := int(n.sortAxis)
	for _, id := range n.ids {
		p := t.point(id)
		n.coords = append(n.coords, p...)
		n.keys = append(n.keys, p[ax])
	}
	t.quantizeLeaf(n)
}

// quantGuard is the certain error allowance of the leaf twin in code units:
// 0.5 of nearest-integer rounding plus generous headroom for every float32
// rounding in the affine map and its consumers. Consumers treat a code as
// "true value within qscale·quantGuard of its dequantization"; widening the
// guard only weakens the accelerator, never correctness.
const quantGuard = 0.51

// quantizeLeaf refits a leaf's int8 twin from its coordinate mirror: one
// affine map per leaf, fitted to the leaf's own min/max across all axes.
// Refitting wholesale on every mutation keeps the twin trivially consistent
// (a leaf holds ≤ MaxEntries+1 entries, so the refit is a few hundred
// multiply-rounds at most).
func (t *Tree) quantizeLeaf(n *node) {
	if !t.opts.Quantize {
		return
	}
	if cap(n.qcoords) < len(n.coords) {
		n.qcoords = make([]int8, len(n.coords))
	}
	n.qcoords = n.qcoords[:len(n.coords)]
	if len(n.coords) == 0 {
		n.qscale, n.qoff = 0, 0
		return
	}
	lo, hi := n.coords[0], n.coords[0]
	for _, v := range n.coords[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if !(hi > lo) {
		n.qscale, n.qoff = 0, lo
		for i := range n.qcoords {
			n.qcoords[i] = 0
		}
		return
	}
	scale := (hi - lo) / 254
	off := lo + (hi-lo)/2
	n.qscale, n.qoff = scale, off
	inv := 1 / float64(scale)
	for i, v := range n.coords {
		u := math.Round((float64(v) - float64(off)) * inv)
		if u > 127 {
			u = 127
		} else if u < -127 {
			u = -127
		}
		n.qcoords[i] = int8(u)
	}
}

// SetQuantize enables or disables the leaf twins on a built tree — the
// operational toggle for restore paths, since Options.Quantize itself is
// not persisted. Enabling refits every leaf; disabling drops the twins.
// Not safe concurrently with queries or mutations; live cursors observe a
// version bump and re-arm.
func (t *Tree) SetQuantize(on bool) {
	if t.opts.Quantize == on {
		return
	}
	t.opts.Quantize = on
	var walk func(n *node)
	walk = func(n *node) {
		if n.leaf {
			if on {
				t.quantizeLeaf(n)
			} else {
				n.qcoords, n.qscale, n.qoff = nil, 0, 0
			}
			return
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(t.root)
	t.version++
}

func (t *Tree) insertSubtree(sub *node) {
	path := t.descend(sub.rect, sub.level+1)
	n := path[len(path)-1]
	wasEmpty := len(n.children) == 0
	n.children = append(n.children, sub)
	t.expandPath(path, sub.rect, wasEmpty)
	t.handleOverflow(path)
}

// descend walks from the root to a node at targetLevel, choosing children by
// the R* ChooseSubtree criteria, and returns the root-to-target path. The
// path lives in t.path and is valid until the next descend: a forced
// reinsertion is done with its path (tightenPath) before it re-inserts, and
// nothing reads the path after that.
func (t *Tree) descend(r Rect, targetLevel int) []*node {
	n := t.root
	t.path = append(t.path[:0], n)
	for n.level > targetLevel {
		n = t.bestChild(n, r)
		t.path = append(t.path, n)
	}
	return t.path
}

// expandPath grows the rectangles along an insertion path to include r. When
// the target node was empty before the insert, its rectangle is reset to r
// rather than expanded (the zero rect of an empty node must not leak in).
func (t *Tree) expandPath(path []*node, r Rect, targetWasEmpty bool) {
	last := len(path) - 1
	if targetWasEmpty {
		path[last].rect = r.clone()
	} else {
		path[last].rect.ExpandInPlace(r)
	}
	for i := last - 1; i >= 0; i-- {
		path[i].rect.ExpandInPlace(r)
	}
}

// handleOverflow applies R* overflow treatment bottom-up along the insertion
// path: forced reinsertion once per level, splits afterwards.
func (t *Tree) handleOverflow(path []*node) {
	for i := len(path) - 1; i >= 0; i-- {
		n := path[i]
		if n.entryCount() <= t.opts.MaxEntries {
			return
		}
		if bit := uint64(1) << n.level; n != t.root && t.reinserted&bit == 0 {
			t.reinserted |= bit
			t.forceReinsert(n, path[:i+1])
			return
		}
		sibling := t.performSplit(n)
		if n == t.root {
			newRoot := &node{
				level:    n.level + 1,
				children: []*node{n, sibling},
			}
			recomputeRect(newRoot)
			t.root = newRoot
			return
		}
		parent := path[i-1]
		parent.children = append(parent.children, sibling)
		recomputeRect(parent)
	}
}

// forceReinsert evicts the entries of n farthest from its centre, tightens
// the rectangles along the path, and re-inserts the evicted entries from the
// top (R* forced reinsertion).
//
// The eviction order sorts precomputed (distance, slot) keys with
// slices.SortFunc, which runs the same pdqsort as sort.Slice: given the same
// comparison outcomes it makes the same swaps, so ties land exactly where a
// comparator over the live entries would put them. The evicted entries stay
// in the front of n's backing array, which n no longer reaches (n keeps the
// tail and only ever appends).
func (t *Tree) forceReinsert(n *node, path []*node) {
	p := int(float64(t.opts.MaxEntries+1)*reinsertFraction + 0.5)
	if p < 1 {
		p = 1
	}
	center := n.rect.Center(t.center)
	centerRect := Rect{Min: center, Max: center}
	ks := t.keyBuf64(n.entryCount())
	byDistDesc := func(a, b keyed[float64]) int { return cmpKey(b, a) }

	if n.leaf {
		ids := n.ids
		for j := range ks {
			ks[j] = keyed[float64]{pointDistSq(center, n.entry(j, t.dim)), int32(j)}
		}
		slices.SortFunc(ks, byDistDesc)
		permute(ids, ks, &t.idTmp)
		evicted := ids[:p:p]
		n.ids = ids[p:]
		t.recomputeLeafRect(n)
		t.finalizeLeaf(n)
		tightenPath(path)
		// Close reinsert: nearest evictions first.
		for i := len(evicted) - 1; i >= 0; i-- {
			t.insertPoint(evicted[i])
		}
		return
	}

	children := n.children
	for j, c := range children {
		ks[j] = keyed[float64]{c.rect.CenterDistSq(centerRect), int32(j)}
	}
	slices.SortFunc(ks, byDistDesc)
	permute(children, ks, &t.nodeTmp)
	evicted := children[:p:p]
	n.children = children[p:]
	recomputeRect(n)
	tightenPath(path)
	for i := len(evicted) - 1; i >= 0; i-- {
		t.insertSubtree(evicted[i])
	}
}

// tightenPath recomputes the rectangles of the interior nodes on a
// root-to-target path after entries were removed from the target.
func tightenPath(path []*node) {
	for i := len(path) - 2; i >= 0; i-- {
		recomputeRect(path[i])
	}
}

// recomputeRect tightens an internal node's rectangle over its children,
// reusing the node's own rectangle storage (no other node shares it).
func recomputeRect(n *node) {
	if n.leaf || len(n.children) == 0 {
		return
	}
	first := n.children[0].rect
	if len(n.rect.Min) != len(first.Min) {
		n.rect = first.clone()
	} else {
		copy(n.rect.Min, first.Min)
		copy(n.rect.Max, first.Max)
	}
	for _, c := range n.children[1:] {
		n.rect.ExpandInPlace(c.rect)
	}
}

func (t *Tree) recomputeLeafRect(n *node) {
	if len(n.rect.Min) != t.dim {
		n.rect = emptyRect(t.dim)
	}
	if len(n.ids) == 0 {
		clear(n.rect.Min)
		clear(n.rect.Max)
		return
	}
	p := t.point(n.ids[0])
	copy(n.rect.Min, p)
	copy(n.rect.Max, p)
	for _, id := range n.ids[1:] {
		n.rect.ExpandPoint(t.point(id))
	}
}

// bestChild picks the child of n to descend into when inserting rect r.
// For nodes whose children are leaves, R* minimizes overlap enlargement;
// higher up it minimizes area enlargement. Ties break by smaller area.
//
// The enlarged rectangle of each child goes into t.enl, and the overlap
// sums are abandoned once they exceed the best so far (see
// overlapEnlargement), so the choice is made without allocating and is the
// one the full sums would make.
func (t *Tree) bestChild(n *node, r Rect) *node {
	children := n.children
	if len(children) == 0 {
		panic("rstar: bestChild on node without children")
	}
	if children[0].leaf {
		best := children[0]
		bestOverlap := t.overlapEnlargement(children, 0, r, math.Inf(1))
		bestEnl := t.enlargementArea(children[0].rect, r)
		bestArea := children[0].rect.Area()
		for i := 1; i < len(children); i++ {
			c := children[i]
			ov := t.overlapEnlargement(children, i, r, bestOverlap)
			if ov > bestOverlap {
				continue
			}
			enl := t.enlargementArea(c.rect, r)
			area := c.rect.Area()
			if ov < bestOverlap ||
				(enl < bestEnl) ||
				(enl == bestEnl && area < bestArea) {
				best, bestOverlap, bestEnl, bestArea = c, ov, enl, area
			}
		}
		return best
	}
	best := children[0]
	bestEnl := t.enlargementArea(children[0].rect, r)
	bestArea := children[0].rect.Area()
	for i := 1; i < len(children); i++ {
		c := children[i]
		enl := t.enlargementArea(c.rect, r)
		area := c.rect.Area()
		if enl < bestEnl || (enl == bestEnl && area < bestArea) {
			best, bestEnl, bestArea = c, enl, area
		}
	}
	return best
}

// enlarge writes the smallest rectangle covering a and r into t.enl — the
// values Rect.Enlarged computes, without allocating.
func (t *Tree) enlarge(a, r Rect) {
	for i := range a.Min {
		t.enl.Min[i] = a.Min[i]
		if r.Min[i] < t.enl.Min[i] {
			t.enl.Min[i] = r.Min[i]
		}
		t.enl.Max[i] = a.Max[i]
		if r.Max[i] > t.enl.Max[i] {
			t.enl.Max[i] = r.Max[i]
		}
	}
}

// enlargementArea is a.EnlargementArea(r) computed in t.enl.
func (t *Tree) enlargementArea(a, r Rect) float64 {
	t.enlarge(a, r)
	return t.enl.Area() - a.Area()
}

// overlapEnlargement computes how much the overlap between children[i] and
// its siblings grows if children[i] is enlarged to cover r. Once the running
// sum exceeds limit it returns early with a value that is still above limit.
//
// Three shortcuts keep the result exact (for finite areas):
//   - A child that already contains r is not enlarged, so every term is
//     x − x = 0 and the sum is 0.
//   - A sibling the enlarged rectangle does not overlap contributes 0 − 0:
//     the child is inside its enlargement, so it does not overlap it either.
//   - Every term is ≥ 0 (the enlargement contains the child, so its overlap
//     with any sibling is no smaller, factor by factor), and round-to-nearest
//     addition of a non-negative term never decreases the sum. A sum above
//     limit therefore stays above it, and abandoning it cannot change which
//     side of limit the full sum falls on. Sums at or below limit run to the
//     end and are bit-identical to the full sum.
func (t *Tree) overlapEnlargement(children []*node, i int, r Rect, limit float64) float64 {
	ci := children[i].rect
	if ci.ContainsRect(r) {
		return 0
	}
	t.enlarge(ci, r)
	var delta float64
	for j, c := range children {
		if j == i {
			continue
		}
		grown := t.enl.OverlapArea(c.rect)
		if grown == 0 {
			continue
		}
		delta += grown - ci.OverlapArea(c.rect)
		if delta > limit {
			return delta
		}
	}
	return delta
}

// keyed pairs a sort key with the index (or id) of the entry it was read
// from, so a sort reads each key once instead of on every comparison.
// slices.SortFunc over keyed pairs and sort.Slice over the entries run the
// same pdqsort template; fed the same comparison outcomes they make the
// same swaps, so they produce the same permutation, ties included.
type keyed[K float32 | float64] struct {
	key K
	idx int32
}

// cmpKey orders by key alone; cmpKey(a, b) < 0 exactly when a.key < b.key,
// the only question pdqsort asks.
func cmpKey[K float32 | float64](a, b keyed[K]) int {
	switch {
	case a.key < b.key:
		return -1
	case b.key < a.key:
		return 1
	}
	return 0
}

func (t *Tree) keyBuf32(n int) []keyed[float32] {
	if cap(t.keys32) < n {
		t.keys32 = make([]keyed[float32], n)
	}
	return t.keys32[:n]
}

func (t *Tree) keyBuf64(n int) []keyed[float64] {
	if cap(t.keys64) < n {
		t.keys64 = make([]keyed[float64], n)
	}
	return t.keys64[:n]
}

// permute reorders s so that s[k] becomes the old s[ks[k].idx], using *tmp
// as scratch.
func permute[T any, K float32 | float64](s []T, ks []keyed[K], tmp *[]T) {
	old := append((*tmp)[:0], s...)
	for k := range ks {
		s[k] = old[ks[k].idx]
	}
	clear(old) // drop the node pointers the scratch would otherwise pin
	*tmp = old[:0]
}

func pointDistSq(a, b []float32) float64 {
	var s float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		s += d * d
	}
	return s
}

// Stats describes the shape of a tree, used by tests and the benchmark
// harness to report index size.
type Stats struct {
	Height      int
	Nodes       int
	Leaves      int
	Entries     int
	AvgFill     float64 // mean entries per node / MaxEntries
	BytesApprox int64   // rough in-memory footprint of the tree structure
}

// ComputeStats walks the tree and returns shape statistics.
func (t *Tree) ComputeStats() Stats {
	var s Stats
	s.Height = t.Height()
	var totalFill float64
	var walk func(n *node)
	walk = func(n *node) {
		s.Nodes++
		totalFill += float64(n.entryCount()) / float64(t.opts.MaxEntries)
		s.BytesApprox += int64(len(n.rect.Min)+len(n.rect.Max))*4 + 64
		if n.leaf {
			s.Leaves++
			s.Entries += len(n.ids)
			s.BytesApprox += int64(len(n.ids))*4 + int64(len(n.coords))*4 + int64(len(n.keys))*4 + int64(len(n.qcoords))
			return
		}
		s.BytesApprox += int64(len(n.children)) * 8
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(t.root)
	if s.Nodes > 0 {
		s.AvgFill = totalFill / float64(s.Nodes)
	}
	return s
}
