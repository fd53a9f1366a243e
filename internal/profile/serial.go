package profile

// Binary (de)serialization of mined profiles for the on-disk artifact spill
// tier. The per-dynamic-instruction Levels column — the profile's bulk — is
// written as one raw byte run; loads are sorted by PC so the encoding is
// deterministic for identical profiles.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"
)

const serialMagic = "PXPRF001"

var serialOrder = binary.LittleEndian

// EncodeBinary writes the profile in the spill-tier format.
func (p *Profile) EncodeBinary(w io.Writer) error {
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
	if err := writeI64(p.TotalInsts); err != nil {
		return err
	}
	if err := writeI64(p.TotalL2); err != nil {
		return err
	}
	if err := writeU32(uint32(len(p.ExecCounts))); err != nil {
		return err
	}
	for _, c := range p.ExecCounts {
		if err := writeI64(c); err != nil {
			return err
		}
	}
	if err := writeU32(uint32(len(p.Levels))); err != nil {
		return err
	}
	if _, err := bw.Write(p.Levels); err != nil {
		return err
	}
	pcs := make([]int32, 0, len(p.Loads))
	for pc := range p.Loads {
		pcs = append(pcs, pc)
	}
	sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
	if err := writeU32(uint32(len(pcs))); err != nil {
		return err
	}
	for _, pc := range pcs {
		ls := p.Loads[pc]
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
		d.err = fmt.Errorf("profile: truncated payload (%d bytes short)", n-len(d.data))
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
		d.err = fmt.Errorf("profile: %s count %d exceeds the %d bytes left", what, n, len(d.data))
		return 0
	}
	return int(n)
}

// loadRecordMin is the encoded size of a load record with no miss indices:
// PC, three counters and the miss-index count.
const loadRecordMin = 4 + 3*8 + 4

// DecodeBinary decodes a profile from its spill-format payload. Decode
// errors mean corruption (or a stale format); callers quarantine and
// rebuild.
func DecodeBinary(data []byte) (*Profile, error) {
	d := &decoder{data: data}
	if magic := d.take(len(serialMagic)); d.err != nil || string(magic) != serialMagic {
		return nil, fmt.Errorf("profile: bad magic %q", data[:min(len(data), len(serialMagic))])
	}
	p := &Profile{Loads: make(map[int32]*LoadStats)}
	p.TotalInsts = d.i64()
	p.TotalL2 = d.i64()
	nExec := d.count("exec", 8)
	p.ExecCounts = make([]int64, nExec)
	for i := range p.ExecCounts {
		p.ExecCounts[i] = d.i64()
	}
	nLevels := d.count("level", 1)
	if d.err == nil && int64(nLevels) != p.TotalInsts {
		return nil, fmt.Errorf("profile: levels length %d != total instructions %d", nLevels, p.TotalInsts)
	}
	p.Levels = make([]uint8, nLevels)
	copy(p.Levels, d.take(nLevels))
	nLoads := d.count("load", loadRecordMin)
	if nLoads > nExec {
		return nil, fmt.Errorf("profile: %d loads for %d static instructions", nLoads, nExec)
	}
	prev := int64(math.MinInt64)
	for i := 0; i < nLoads && d.err == nil; i++ {
		ls := &LoadStats{PC: int32(d.u32())}
		if d.err != nil {
			break
		}
		// The encoder writes loads in strictly increasing PC order; anything
		// else (a duplicate PC in particular) is not a payload it produced.
		if int64(ls.PC) <= prev {
			return nil, fmt.Errorf("profile: load %d out of PC order", ls.PC)
		}
		prev = int64(ls.PC)
		ls.Execs, ls.L1Misses, ls.L2Misses = d.i64(), d.i64(), d.i64()
		nIx := d.count("miss-index", 8)
		if int64(nIx) > p.TotalInsts {
			return nil, fmt.Errorf("profile: load %d has %d miss indices for %d instructions", ls.PC, nIx, p.TotalInsts)
		}
		if nIx > 0 {
			ls.MissDynIx = make([]int64, nIx)
			for j := range ls.MissDynIx {
				ls.MissDynIx[j] = d.i64()
			}
		}
		p.Loads[ls.PC] = ls
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.data) != 0 {
		return nil, fmt.Errorf("profile: %d trailing bytes after last load", len(d.data))
	}
	return p, nil
}
