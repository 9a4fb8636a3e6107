package rstar

import (
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"dblsh/internal/vec"
)

// treeFingerprint hashes the exact shape of a tree: every node's level and
// rectangle bits in depth-first order, plus each leaf's sort axis, id order
// and quantized twin. Two trees with the same fingerprint answer every query
// with the same visit order.
func treeFingerprint(tr *Tree) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(h hash.Hash64, v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	var walk func(n *node)
	walk = func(n *node) {
		put(h, uint64(n.level))
		put(h, uint64(n.entryCount()))
		for d := range n.rect.Min {
			put(h, uint64(math.Float32bits(n.rect.Min[d])))
			put(h, uint64(math.Float32bits(n.rect.Max[d])))
		}
		if n.leaf {
			put(h, uint64(n.sortAxis))
			for _, id := range n.ids {
				put(h, uint64(id))
			}
			for _, q := range n.qcoords {
				put(h, uint64(uint8(q)))
			}
			put(h, uint64(math.Float32bits(n.qscale)))
			put(h, uint64(math.Float32bits(n.qoff)))
			return
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(tr.root)
	return h.Sum64()
}

// clusteredMatrix draws n points around a few Gaussian centres, the shape
// projected LSH coordinates of real corpora tend to have.
func clusteredMatrix(n, d, clusters int, seed int64) *vec.Matrix {
	rng := rand.New(rand.NewSource(seed))
	centres := make([][]float64, clusters)
	for c := range centres {
		centres[c] = make([]float64, d)
		for j := range centres[c] {
			centres[c][j] = rng.NormFloat64() * 50
		}
	}
	m := vec.NewMatrix(n, d)
	for i := 0; i < n; i++ {
		c := centres[rng.Intn(clusters)]
		for j := 0; j < d; j++ {
			m.Row(i)[j] = float32(c[j] + rng.NormFloat64()*3)
		}
	}
	return m
}

// duplicateMatrix draws every coordinate from {-0, +0, 1, 2}, so most points
// repeat exactly and both zero signs meet in min/max sweeps.
func duplicateMatrix(n, d int, seed int64) *vec.Matrix {
	rng := rand.New(rand.NewSource(seed))
	vals := []float32{float32(math.Copysign(0, -1)), 0, 1, 2}
	m := vec.NewMatrix(n, d)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			m.Row(i)[j] = vals[rng.Intn(len(vals))]
		}
	}
	return m
}

// TestTreeShapeGolden pins the trees BulkLoad and Insert build. The
// constants were recorded from the straightforward implementation (sort.Slice
// comparators, per-cut rectangle rebuilds, full overlap sums); any faster
// path must reproduce them bit for bit, since the cursor's emitted order —
// and so every query answer — is a function of the tree shape.
func TestTreeShapeGolden(t *testing.T) {
	cases := []struct {
		name          string
		data          *vec.Matrix
		bulk          int
		opts          Options
		bulkFP, insFP uint64
	}{
		{"clustered-10d", clusteredMatrix(3300, 10, 12, 1), 3000, Options{Quantize: true}, 0x63ec63dbb404ea, 0xc62c35941557836e},
		{"duplicates-4d", duplicateMatrix(2400, 4, 2), 2000, Options{MaxEntries: 16, Quantize: true}, 0x228af8547bd9bc48, 0xbe12258f4732edbb},
		{"max4-3d", randomMatrix(1000, 3, 3), 600, Options{MaxEntries: 4}, 0x6722d0fa88e66bdb, 0x96cb51801fcf88a7},
		{"max8-5d", clusteredMatrix(1500, 5, 6, 4), 1000, Options{MaxEntries: 8, Quantize: true}, 0x716001ee9bd1c09f, 0x3db90aa8ab7fdd72},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ids := make([]int, tc.bulk)
			for i := range ids {
				ids[i] = i
			}
			tr := BulkLoadIDs(tc.data, ids, tc.opts)
			if got := treeFingerprint(tr); got != tc.bulkFP {
				t.Errorf("after BulkLoad: fingerprint %#x, want %#x", got, tc.bulkFP)
			}
			for i := tc.bulk; i < tc.data.Rows(); i++ {
				tr.Insert(i)
			}
			if msg := tr.CheckInvariants(); msg != "" {
				t.Fatalf("invariant violated: %s", msg)
			}
			if got := treeFingerprint(tr); got != tc.insFP {
				t.Errorf("after %d inserts: fingerprint %#x, want %#x", tc.data.Rows()-tc.bulk, got, tc.insFP)
			}
		})
	}
}

// naiveOverlapEnlargement is the textbook sum over every sibling, with
// allocating rectangle helpers: the reference the early-abandoning version
// must agree with.
func naiveOverlapEnlargement(children []*node, i int, r Rect) float64 {
	enlarged := children[i].rect.Enlarged(r)
	var delta float64
	for j, c := range children {
		if j == i {
			continue
		}
		delta += enlarged.OverlapArea(c.rect) - children[i].rect.OverlapArea(c.rect)
	}
	return delta
}

// TestOverlapEnlargementEarlyAbandon checks overlapEnlargement against the
// naive sum: the same value whenever that value is at most the limit, and a
// value above the limit exactly when the naive sum is above it. Boxes are
// drawn on a coarse grid so containment, touching faces, disjoint siblings
// and exact ties all occur often.
func TestOverlapEnlargementEarlyAbandon(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const dim = 3
	tr := New(vec.NewMatrix(1, dim), Options{})
	box := func() Rect {
		lo, hi := make([]float32, dim), make([]float32, dim)
		for d := 0; d < dim; d++ {
			a, b := float32(rng.Intn(8)), float32(rng.Intn(8))
			if a > b {
				a, b = b, a
			}
			lo[d], hi[d] = a, b
		}
		return Rect{Min: lo, Max: hi}
	}
	for trial := 0; trial < 20000; trial++ {
		children := make([]*node, 2+rng.Intn(10))
		for j := range children {
			children[j] = &node{leaf: true, rect: box()}
		}
		p := make([]float32, dim)
		for d := range p {
			p[d] = float32(rng.Intn(9)) - 0.5*float32(rng.Intn(2))
		}
		r := Rect{Min: p, Max: p}
		i := rng.Intn(len(children))
		want := naiveOverlapEnlargement(children, i, r)
		limits := []float64{math.Inf(1), want, 0, want / 2, math.Nextafter(want, math.Inf(-1)), rng.Float64() * 64}
		for _, limit := range limits {
			got := tr.overlapEnlargement(children, i, r, limit)
			if want <= limit && got != want {
				t.Fatalf("trial %d limit %v: got %v, want exact %v", trial, limit, got, want)
			}
			if (got > limit) != (want > limit) {
				t.Fatalf("trial %d limit %v: got %v, naive %v disagree on the limit", trial, limit, got, want)
			}
		}
	}
}
