package rstar

import (
	"math"
	"slices"

	"dblsh/internal/vec"
)

// BulkLoad builds an R*-tree over all rows of data using Sort-Tile-Recursive
// (STR) packing. This is the "bulk-loading strategy" the paper credits for
// DB-LSH's small indexing time: packing produces near-100% leaf fill and
// never triggers splits or reinsertions.
//
// The returned tree supports subsequent Insert calls for rows appended to
// data after loading.
func BulkLoad(data *vec.Matrix, opts Options) *Tree {
	t := New(data, opts)
	n := data.Rows()
	if n == 0 {
		return t
	}
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	t.load(ids)
	return t
}

// BulkLoadIDs builds a tree over a subset of data's rows.
func BulkLoadIDs(data *vec.Matrix, ids []int, opts Options) *Tree {
	t := New(data, opts)
	if len(ids) == 0 {
		return t
	}
	ids32 := make([]int32, len(ids))
	for i, id := range ids {
		ids32[i] = int32(id)
	}
	t.load(ids32)
	return t
}

// load packs ids into a fresh tree: STR leaves, then internal levels.
func (t *Tree) load(ids []int32) {
	t.root = t.packUpward(t.packLeaves(ids))
	t.size = len(ids)
	t.keys32 = nil // sized for the whole load; inserts need only M+1
}

// packLeaves tiles the id set into leaf nodes with STR.
func (t *Tree) packLeaves(ids []int32) []*node {
	cap := t.opts.MaxEntries
	var leaves []*node
	coord := func(id int32, axis int) float32 { return t.point(id)[axis] }
	t.strTile(ids, coord, 0, cap, func(chunk []int32) {
		leaf := &node{leaf: true, level: 0, ids: append([]int32(nil), chunk...)}
		t.recomputeLeafRect(leaf)
		t.finalizeLeaf(leaf)
		leaves = append(leaves, leaf)
	})
	return leaves
}

// strTile recursively sorts ids by successive axes of coord and partitions
// them into slabs so that the final chunks have at most chunkSize entries
// (classic STR: with P pages and k remaining dims, use ⌈P^(1/k)⌉ slabs per
// axis). Each sort extracts its keys once (see sortByAxis).
func (t *Tree) strTile(ids []int32, coord func(id int32, axis int) float32, axis, chunkSize int, emit func([]int32)) {
	if len(ids) <= chunkSize {
		emit(ids)
		return
	}
	remDims := t.dim - axis
	if remDims <= 1 {
		// Last axis: sort and emit fixed-size runs.
		t.sortByAxis(ids, coord, axis)
		for lo := 0; lo < len(ids); lo += chunkSize {
			hi := lo + chunkSize
			if hi > len(ids) {
				hi = len(ids)
			}
			emit(ids[lo:hi])
		}
		return
	}
	pages := (len(ids) + chunkSize - 1) / chunkSize
	slabs := int(math.Ceil(math.Pow(float64(pages), 1/float64(remDims))))
	if slabs < 1 {
		slabs = 1
	}
	perSlab := (len(ids) + slabs - 1) / slabs
	// Round the slab size to a multiple of chunkSize so inner tiles fill.
	if rem := perSlab % chunkSize; rem != 0 {
		perSlab += chunkSize - rem
	}
	t.sortByAxis(ids, coord, axis)
	for lo := 0; lo < len(ids); lo += perSlab {
		hi := lo + perSlab
		if hi > len(ids) {
			hi = len(ids)
		}
		t.strTile(ids[lo:hi], coord, axis+1, chunkSize, emit)
	}
}

// sortByAxis sorts ids ascending by coord(id, axis), with the permutation
// sort.Slice would apply (see keyed).
func (t *Tree) sortByAxis(ids []int32, coord func(id int32, axis int) float32, axis int) {
	ks := t.keyBuf32(len(ids))
	for i, id := range ids {
		ks[i] = keyed[float32]{coord(id, axis), id}
	}
	slices.SortFunc(ks, cmpKey[float32])
	for i := range ks {
		ids[i] = ks[i].idx
	}
}

// packUpward builds internal levels over the given nodes until one root
// remains, grouping nodes by STR on their centre points.
func (t *Tree) packUpward(nodes []*node) *node {
	level := 1
	for len(nodes) > 1 {
		nodes = t.packLevel(nodes, level)
		level++
	}
	return nodes[0]
}

func (t *Tree) packLevel(nodes []*node, level int) []*node {
	cap := t.opts.MaxEntries
	dim := t.dim
	centers := make([]float32, len(nodes)*dim)
	order := make([]int32, len(nodes))
	for i, n := range nodes {
		n.rect.Center(centers[i*dim : (i+1)*dim])
		order[i] = int32(i)
	}
	center := func(i int32, axis int) float32 { return centers[int(i)*dim+axis] }
	var out []*node
	t.strTile(order, center, 0, cap, func(chunk []int32) {
		parent := &node{level: level, children: make([]*node, 0, len(chunk))}
		for _, idx := range chunk {
			parent.children = append(parent.children, nodes[idx])
		}
		recomputeRect(parent)
		out = append(out, parent)
	})
	return out
}
