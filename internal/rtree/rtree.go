// Package rtree implements a two-dimensional R-tree built once by
// Sort-Tile-Recursive (STR) bulk loading. It is the spatial index under
// the Strabon store (internal/strabon): spatial filters in stSPARQL first
// prune candidates by bounding box here, then verify the exact predicate
// with internal/geo.
package rtree

import (
	"math"
	"sort"

	"repro/internal/geo"
)

// DefaultMaxEntries is the node fan-out BulkLoad uses when given less
// than 4.
const DefaultMaxEntries = 16

// Item is an indexed entry: a bounding box plus an opaque identifier.
type Item struct {
	Box geo.Envelope
	ID  uint64
}

// Tree is a 2D R-tree, immutable once BulkLoad returns it, so concurrent
// readers are safe. The zero value is not usable; call BulkLoad.
type Tree struct {
	root *node
	size int
}

type node struct {
	box      geo.Envelope
	leaf     bool
	items    []Item  // populated when leaf
	children []*node // populated when !leaf
}

// BulkLoad builds a near-optimally packed tree from items using the STR
// packing algorithm, with the given maximum node fan-out
// (DefaultMaxEntries when maxEntries < 4). In the store it is built only
// by strabon's packView.ensureGeoms, once per base image, over every
// geometry of the image; queries probe that tree and never build one.
func BulkLoad(items []Item, maxEntries int) *Tree {
	if maxEntries < 4 {
		maxEntries = DefaultMaxEntries
	}
	t := &Tree{root: &node{leaf: true, box: geo.EmptyEnvelope()}}
	if len(items) == 0 {
		return t
	}
	cp := make([]Item, len(items))
	copy(cp, items)
	leaves := strPack(cp, maxEntries)
	nodes := leaves
	for len(nodes) > 1 {
		nodes = strPackNodes(nodes, maxEntries)
	}
	t.root = nodes[0]
	t.size = len(items)
	return t
}

func strPack(items []Item, m int) []*node {
	sort.Slice(items, func(i, j int) bool {
		return items[i].Box.Center().X < items[j].Box.Center().X
	})
	nLeaves := (len(items) + m - 1) / m
	nSlices := int(math.Ceil(math.Sqrt(float64(nLeaves))))
	sliceSize := nSlices * m
	var leaves []*node
	for s := 0; s < len(items); s += sliceSize {
		end := s + sliceSize
		if end > len(items) {
			end = len(items)
		}
		slice := items[s:end]
		sort.Slice(slice, func(i, j int) bool {
			return slice[i].Box.Center().Y < slice[j].Box.Center().Y
		})
		for o := 0; o < len(slice); o += m {
			e := o + m
			if e > len(slice) {
				e = len(slice)
			}
			leaf := &node{leaf: true, items: append([]Item(nil), slice[o:e]...)}
			leaf.recomputeBox()
			leaves = append(leaves, leaf)
		}
	}
	return leaves
}

func strPackNodes(children []*node, m int) []*node {
	sort.Slice(children, func(i, j int) bool {
		return children[i].box.Center().X < children[j].box.Center().X
	})
	nParents := (len(children) + m - 1) / m
	nSlices := int(math.Ceil(math.Sqrt(float64(nParents))))
	sliceSize := nSlices * m
	var parents []*node
	for s := 0; s < len(children); s += sliceSize {
		end := s + sliceSize
		if end > len(children) {
			end = len(children)
		}
		slice := children[s:end]
		sort.Slice(slice, func(i, j int) bool {
			return slice[i].box.Center().Y < slice[j].box.Center().Y
		})
		for o := 0; o < len(slice); o += m {
			e := o + m
			if e > len(slice) {
				e = len(slice)
			}
			p := &node{children: append([]*node(nil), slice[o:e]...)}
			p.recomputeBox()
			parents = append(parents, p)
		}
	}
	return parents
}

func (n *node) recomputeBox() {
	box := geo.EmptyEnvelope()
	if n.leaf {
		for _, it := range n.items {
			box = box.Extend(it.Box)
		}
	} else {
		for _, c := range n.children {
			box = box.Extend(c.box)
		}
	}
	n.box = box
}

// Search appends to dst the IDs of all items whose boxes intersect query,
// and returns the extended slice. Order is unspecified.
func (t *Tree) Search(query geo.Envelope, dst []uint64) []uint64 {
	return searchNode(t.root, query, dst)
}

func searchNode(n *node, q geo.Envelope, dst []uint64) []uint64 {
	if !n.box.Intersects(q) {
		return dst
	}
	if n.leaf {
		for _, it := range n.items {
			if it.Box.Intersects(q) {
				dst = append(dst, it.ID)
			}
		}
		return dst
	}
	for _, c := range n.children {
		dst = searchNode(c, q, dst)
	}
	return dst
}
