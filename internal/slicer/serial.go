package slicer

// Binary (de)serialization of slice trees for the on-disk artifact spill
// tier. Each tree's nodes are flattened in depth-first preorder with parent
// indices, which both preserves the original child order (selection walks
// children in insertion order) and makes the encoding deterministic.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/profile"
)

const serialMagic = "PXSLC001"

var serialOrder = binary.LittleEndian

// EncodeTrees writes the slice trees in the spill-tier format.
func EncodeTrees(w io.Writer, trees []*Tree) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(serialMagic); err != nil {
		return err
	}
	var scratch [8]byte
	writeU32 := func(v uint32) error {
		serialOrder.PutUint32(scratch[:4], v)
		_, err := bw.Write(scratch[:4])
		return err
	}
	writeI64 := func(v int64) error {
		serialOrder.PutUint64(scratch[:8], uint64(v))
		_, err := bw.Write(scratch[:8])
		return err
	}
	if err := writeU32(uint32(len(trees))); err != nil {
		return err
	}
	for _, t := range trees {
		if err := writeU32(uint32(t.TargetPC)); err != nil {
			return err
		}
		ls := t.Load
		if ls == nil {
			ls = &profile.LoadStats{}
		}
		if err := writeU32(uint32(ls.PC)); err != nil {
			return err
		}
		for _, v := range []int64{ls.Execs, ls.L1Misses, ls.L2Misses} {
			if err := writeI64(v); err != nil {
				return err
			}
		}
		if err := writeU32(uint32(len(ls.MissDynIx))); err != nil {
			return err
		}
		for _, ix := range ls.MissDynIx {
			if err := writeI64(ix); err != nil {
				return err
			}
		}
		if err := writeI64(t.Sampled); err != nil {
			return err
		}
		if err := writeI64(int64(math.Float64bits(t.Scale))); err != nil {
			return err
		}
		// Flatten: preorder walk assigning indices; each node records its
		// parent's index (root's parent is ^uint32(0)).
		var flat []*Node
		index := map[*Node]uint32{}
		var walk func(n *Node)
		walk = func(n *Node) {
			index[n] = uint32(len(flat))
			flat = append(flat, n)
			for _, c := range n.Children {
				walk(c)
			}
		}
		walk(t.Root)
		if err := writeU32(uint32(len(flat))); err != nil {
			return err
		}
		for _, n := range flat {
			parent := ^uint32(0)
			if n.Parent != nil {
				parent = index[n.Parent]
			}
			if err := writeU32(parent); err != nil {
				return err
			}
			if err := writeU32(uint32(n.PC)); err != nil {
				return err
			}
			if err := writeU32(uint32(n.Depth)); err != nil {
				return err
			}
			for _, v := range []int64{n.DCtrig, n.DCptcm, n.DistSum} {
				if err := writeI64(v); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// decoder reads the spill format from a held payload. Every element count
// is checked against the bytes that remain before anything is sized from
// it, so a forged count fails without allocating; the first failure
// sticks and later reads return zero.
type decoder struct {
	data []byte
	err  error
}

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n > len(d.data) {
		d.err = fmt.Errorf("slicer: truncated payload (%d bytes short)", n-len(d.data))
		return nil
	}
	b := d.data[:n]
	d.data = d.data[n:]
	return b
}

func (d *decoder) u32() uint32 {
	if b := d.take(4); b != nil {
		return serialOrder.Uint32(b)
	}
	return 0
}

func (d *decoder) i64() int64 {
	if b := d.take(8); b != nil {
		return int64(serialOrder.Uint64(b))
	}
	return 0
}

// count reads an element count and rejects it unless that many elements of
// at least size bytes each fit in the remaining payload.
func (d *decoder) count(what string, size int) int {
	n := d.u32()
	if d.err == nil && uint64(n)*uint64(size) > uint64(len(d.data)) {
		d.err = fmt.Errorf("slicer: %s count %d exceeds the %d bytes left", what, n, len(d.data))
		return 0
	}
	return int(n)
}

// Encoded record sizes used to bound counts: a node is parent, PC, depth
// and three counters; a tree is at least its target PC, a load record
// without miss indices, Sampled, Scale, the node count and one node.
const (
	nodeRecord = 3*4 + 3*8
	treeMin    = 4 + (4 + 3*8 + 4) + 8 + 8 + 4 + nodeRecord
)

// DecodeTrees decodes slice trees from their spill-format payload. Decode
// errors mean corruption (or a stale format); callers quarantine and
// rebuild.
func DecodeTrees(data []byte) ([]*Tree, error) {
	d := &decoder{data: data}
	if magic := d.take(len(serialMagic)); d.err != nil || string(magic) != serialMagic {
		return nil, fmt.Errorf("slicer: bad magic %q", data[:min(len(data), len(serialMagic))])
	}
	nTrees := d.count("tree", treeMin)
	trees := make([]*Tree, 0, nTrees)
	for ti := 0; ti < nTrees && d.err == nil; ti++ {
		t := &Tree{TargetPC: int32(d.u32())}
		ls := &profile.LoadStats{PC: int32(d.u32())}
		ls.Execs, ls.L1Misses, ls.L2Misses = d.i64(), d.i64(), d.i64()
		if nIx := d.count("miss-index", 8); nIx > 0 {
			ls.MissDynIx = make([]int64, nIx)
			for j := range ls.MissDynIx {
				ls.MissDynIx[j] = d.i64()
			}
		}
		t.Load = ls
		t.Sampled = d.i64()
		t.Scale = math.Float64frombits(uint64(d.i64()))
		nNodes := d.count("node", nodeRecord)
		if d.err == nil && nNodes == 0 {
			return nil, fmt.Errorf("slicer: tree %d has no nodes", ti)
		}
		flat := make([]*Node, nNodes)
		for ni := 0; ni < nNodes && d.err == nil; ni++ {
			parent := d.u32()
			n := &Node{PC: int32(d.u32()), Depth: int(d.u32())}
			n.DCtrig, n.DCptcm, n.DistSum = d.i64(), d.i64(), d.i64()
			if d.err != nil {
				break
			}
			flat[ni] = n
			if ni == 0 {
				if parent != ^uint32(0) {
					return nil, fmt.Errorf("slicer: tree %d does not start at its root", ti)
				}
				t.Root = n
				continue
			}
			// Preorder: a node's parent is the previous node or one of its
			// ancestors. Anything else is corruption — a forward reference
			// would nil-deref, and any other order re-encodes differently.
			if parent >= uint32(ni) {
				return nil, fmt.Errorf("slicer: tree %d node %d references parent %d out of order", ti, ni, parent)
			}
			p := flat[ni-1]
			for p != nil && p != flat[parent] {
				p = p.Parent
			}
			if p == nil {
				return nil, fmt.Errorf("slicer: tree %d node %d: parent %d is not on the preorder path", ti, ni, parent)
			}
			n.Parent = p
			p.Children = append(p.Children, n)
		}
		trees = append(trees, t)
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.data) != 0 {
		return nil, fmt.Errorf("slicer: %d trailing bytes after last tree", len(d.data))
	}
	return trees, nil
}
