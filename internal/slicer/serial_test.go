package slicer

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
)

// stripLinks nulls the Parent back-pointers so reflect.DeepEqual can compare
// two trees without chasing the (cyclic) parent links; child order — the
// part selection depends on — is still compared in full.
func stripLinks(trees []*Tree) {
	for _, t := range trees {
		var walk func(n *Node)
		walk = func(n *Node) {
			n.Parent = nil
			for _, c := range n.Children {
				walk(c)
			}
		}
		walk(t.Root)
	}
}

func TestTreesSerialRoundTrip(t *testing.T) {
	trees, _, _ := buildTestTrees(t, paperLoop(3000), DefaultConfig())
	var buf bytes.Buffer
	if err := EncodeTrees(&buf, trees); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeTrees(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(trees) {
		t.Fatalf("tree count %d, want %d", len(got), len(trees))
	}
	// Parent links must be consistent before we strip them for comparison.
	for ti, tree := range got {
		tree.Walk(func(n *Node) {
			if n.Parent == nil {
				t.Fatalf("tree %d: non-root node with nil parent", ti)
			}
			found := false
			for _, c := range n.Parent.Children {
				if c == n {
					found = true
				}
			}
			if !found {
				t.Fatalf("tree %d: node missing from its parent's children", ti)
			}
		})
	}
	var buf2 bytes.Buffer
	if err := EncodeTrees(&buf2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("re-encoding decoded trees changed the bytes")
	}
	stripLinks(trees)
	stripLinks(got)
	if !reflect.DeepEqual(trees, got) {
		t.Error("tree round trip diverged")
	}
}

func TestTreesSerialRejectsCorruption(t *testing.T) {
	trees, _, _ := buildTestTrees(t, paperLoop(3000), DefaultConfig())
	var buf bytes.Buffer
	if err := EncodeTrees(&buf, trees); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for name, data := range map[string][]byte{
		"empty":     {},
		"bad magic": append([]byte("NOTTREES"), raw[8:]...),
		"truncated": raw[:len(raw)-5],
		"trailing":  append(append([]byte(nil), raw...), 7),
	} {
		if _, err := DecodeTrees(data); err == nil {
			t.Errorf("%s: decode succeeded, want error", name)
		}
	}
}

// TestTreesDecodeBoundsCountsByInput pins that a forged miss-index count
// fails before anything is sized from it: a one-tree payload claiming 2^28
// miss indices (2 GiB of int64) must error while allocating under 1 MB.
func TestTreesDecodeBoundsCountsByInput(t *testing.T) {
	forged := []byte(serialMagic)
	forged = serialOrder.AppendUint32(forged, 1) // tree count
	forged = serialOrder.AppendUint32(forged, 7) // target PC
	forged = serialOrder.AppendUint32(forged, 7) // load PC
	forged = append(forged, make([]byte, 3*8)...)
	forged = serialOrder.AppendUint32(forged, 1<<28) // miss-index count
	// Pad so the tree count itself is plausible and the miss-index count
	// is the first claim the payload cannot back.
	forged = append(forged, make([]byte, treeMin)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeTrees(forged)
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Errorf("decoding the forged payload allocated %d bytes, want < 1 MB", n)
	}
	if err == nil {
		t.Error("forged miss-index count decoded, want error")
	}
}

// FuzzSliceTreesDecode: any input either fails to decode or decodes to a
// forest that re-encodes to exactly the input bytes — never a panic.
func FuzzSliceTreesDecode(f *testing.F) {
	trees, _, _ := buildTestTrees(f, paperLoop(300), DefaultConfig())
	var buf bytes.Buffer
	if err := EncodeTrees(&buf, trees); err != nil {
		f.Fatal(err)
	}
	pristine := buf.Bytes()
	f.Add(pristine)
	f.Add([]byte(nil))
	for _, cut := range []int{7, 8, 12, 60, len(pristine) / 2, len(pristine) - 1} {
		f.Add(pristine[:cut])
	}
	for _, off := range []int{9, 30, 56, len(pristine) - 30} {
		mut := append([]byte(nil), pristine...)
		mut[off] ^= 0x40
		f.Add(mut)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeTrees(data)
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := EncodeTrees(&out, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("decoded forest re-encodes to %d different bytes (input %d)", out.Len(), len(data))
		}
	})
}
