package profile

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/trace"
)

// strideLoop walks a large array with a cache-hostile stride so the profile
// has real L1/L2 misses and a non-empty problem-load set.
func strideLoop(t testing.TB) *trace.Trace {
	t.Helper()
	b := isa.NewBuilder("serial-profile")
	const words = 1 << 14
	mem := make([]int64, words)
	const (
		rI   = isa.Reg(1)
		rN   = isa.Reg(2)
		rAdr = isa.Reg(3)
		rV   = isa.Reg(4)
		rC   = isa.Reg(5)
	)
	b.MovI(rI, 0)
	b.MovI(rN, words/8)
	b.Label("top")
	b.ShlI(rAdr, rI, 6) // stride 64 bytes: a new line every access
	b.Load(rV, rAdr, 0)
	b.AddI(rI, rI, 1)
	b.CmpLT(rC, rI, rN)
	b.BrNZ(rC, "top")
	b.Halt()
	b.SetMem(mem)
	return trace.MustRun(b.MustBuild())
}

func smallHier() Config {
	return Config{
		L1D: cache.Config{SizeBytes: 1 << 10, Ways: 2, BlockBytes: 64, HitLatency: 2},
		L2:  cache.Config{SizeBytes: 8 << 10, Ways: 4, BlockBytes: 64, HitLatency: 12},
	}
}

func TestProfileSerialRoundTrip(t *testing.T) {
	tr := strideLoop(t)
	p := Collect(tr, smallHier())
	if p.TotalL2 == 0 || len(p.Loads) == 0 {
		t.Fatal("workload produced no L2 misses; profile round trip untested")
	}
	var buf bytes.Buffer
	if err := p.EncodeBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBinary(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, got) {
		t.Error("profile round trip diverged")
	}
	var buf2 bytes.Buffer
	if err := got.EncodeBinary(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("re-encoding a decoded profile changed the bytes")
	}
}

func TestProfileSerialRejectsCorruption(t *testing.T) {
	tr := strideLoop(t)
	p := Collect(tr, smallHier())
	var buf bytes.Buffer
	if err := p.EncodeBinary(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for name, data := range map[string][]byte{
		"empty":     {},
		"bad magic": append([]byte("NOTPROFL"), raw[8:]...),
		"truncated": raw[:len(raw)-7],
		"trailing":  append(append([]byte(nil), raw...), 1),
	} {
		if _, err := DecodeBinary(data); err == nil {
			t.Errorf("%s: decode succeeded, want error", name)
		}
	}
}

// totalAlloc returns the bytes the process allocated while f ran.
func totalAlloc(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestProfileDecodeBoundsCountsByInput pins that a forged element count
// fails before anything is sized from it: 28 bytes claiming 2^28 exec
// counts (2 GiB of int64) must error while allocating under 1 MB.
func TestProfileDecodeBoundsCountsByInput(t *testing.T) {
	forged := []byte(serialMagic)
	forged = serialOrder.AppendUint64(forged, 1<<32-1) // TotalInsts
	forged = serialOrder.AppendUint64(forged, 0)       // TotalL2
	forged = serialOrder.AppendUint32(forged, 1<<28)   // exec-count length
	if len(forged) != 28 {
		t.Fatalf("forged payload is %d bytes, want 28", len(forged))
	}
	var err error
	if n := totalAlloc(func() { _, err = DecodeBinary(forged) }); n >= 1<<20 {
		t.Errorf("decoding the forged payload allocated %d bytes, want < 1 MB", n)
	}
	if err == nil {
		t.Error("forged exec count decoded, want error")
	}
}

// FuzzProfileDecodeBinary: any input either fails to decode or decodes to a
// profile that re-encodes to exactly the input bytes — never a panic.
func FuzzProfileDecodeBinary(f *testing.F) {
	var buf bytes.Buffer
	if err := Collect(strideLoop(f), smallHier()).EncodeBinary(&buf); err != nil {
		f.Fatal(err)
	}
	pristine := buf.Bytes()
	f.Add(pristine)
	f.Add([]byte(nil))
	for _, cut := range []int{7, 8, 16, 28, len(pristine) / 2, len(pristine) - 1} {
		f.Add(pristine[:cut])
	}
	for _, off := range []int{9, 24, 27, len(pristine) - 20} {
		mut := append([]byte(nil), pristine...)
		mut[off] ^= 0x40
		f.Add(mut)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodeBinary(data)
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := p.EncodeBinary(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("decoded profile re-encodes to %d different bytes (input %d)", out.Len(), len(data))
		}
	})
}
