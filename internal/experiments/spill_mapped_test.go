package experiments

import (
	"context"
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/artifactdisk"
	"repro/internal/program"
)

// traceSpillFile returns the single trace-stage artifact file under dir.
func traceSpillFile(t *testing.T, dir string) string {
	t.Helper()
	var traces []string
	sep := string(os.PathSeparator)
	for _, p := range spillFiles(t, dir) {
		if strings.Contains(p, sep+"trace"+sep) {
			traces = append(traces, p)
		}
	}
	if len(traces) != 1 {
		t.Fatalf("found %d trace spill files, want 1", len(traces))
	}
	return traces[0]
}

// copyDir duplicates a spill directory so corruption scenarios can share one
// cold populate.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o777)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o666)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// rewriteTracePlain moves gap's trace artifact in dir from the page-aligned
// LABART02 container into a plain LABART01 one (Save, not SaveAligned), the
// way a store written before the aligned container held it. mutate, if
// non-nil, edits the payload first.
func rewriteTracePlain(t *testing.T, dir string, cfg Config, mutate func([]byte)) {
	t.Helper()
	plan, err := planFor(cfg, "")
	if err != nil {
		t.Fatal(err)
	}
	dk := diskKey(artifactKey{name: "gap", input: program.Train, stage: StageTrace, fp: plan.fps[StageTrace]})
	st, err := artifactdisk.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	payload, ok := st.Load(dk)
	if !ok {
		t.Fatal("populated store has no gap trace")
	}
	if mutate != nil {
		mutate(payload)
	}
	if err := os.Remove(traceSpillFile(t, dir)); err != nil {
		t.Fatal(err)
	}
	if st, err = artifactdisk.Open(dir, 0); err != nil {
		t.Fatal(err)
	}
	if err := st.Save(dk, payload); err != nil {
		t.Fatal(err)
	}
}

// TestMappedSpillRestartWarm pins the zero-copy restart path: a fresh Runner
// over a populated directory serves its trace through a read-only mapping
// (spill_mapped == 1 on the trace stage, 0 everywhere else), keeps one file
// mapped in the store's accounting, and assembles a preparation equal to the
// cold one. Two legacy layouts take the heap path instead: a v2 payload in
// the plain container loads through the heap decoder, and a v1-era payload
// is quarantined, rebuilt and re-spilled as a mappable v2 file.
func TestMappedSpillRestartWarm(t *testing.T) {
	if !artifactdisk.MapSupported() {
		t.Skip("platform cannot map files")
	}
	ctx := context.Background()
	dir := t.TempDir()
	cfg := DefaultConfig()

	r1 := NewRunner(cfg, 0, nil)
	if err := r1.AttachDiskStore(dir, 0); err != nil {
		t.Fatal(err)
	}
	p1, err := r1.Prepare(ctx, "gap", program.Train, cfg)
	if err != nil {
		t.Fatal(err)
	}

	r2 := NewRunner(cfg, 0, nil)
	if err := r2.AttachDiskStore(dir, 0); err != nil {
		t.Fatal(err)
	}
	p2, err := r2.Prepare(ctx, "gap", program.Train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	stats := r2.StoreStats()
	for _, st := range spillableStages() {
		want := int64(0)
		if st == StageTrace {
			want = 1
		}
		if n := stats.Stages[st].SpillMapped; n != want {
			t.Errorf("stage %s spill_mapped = %d, want %d", st, n, want)
		}
		if n := stats.Stages[st].SpillLoads; n != 1 {
			t.Errorf("stage %s spill_loads = %d, want 1", st, n)
		}
		if n := r2.StagePrepares(st); n != 0 {
			t.Errorf("warm runner rebuilt stage %s %d times, want 0", st, n)
		}
	}
	if stats.Disk.MappedFiles != 1 {
		t.Errorf("disk reports %d mapped files, want 1", stats.Disk.MappedFiles)
	}
	if stats.Disk.MappedBytes <= 0 {
		t.Errorf("disk reports %d mapped bytes, want > 0", stats.Disk.MappedBytes)
	}

	if !reflect.DeepEqual(p1.Baseline, p2.Baseline) {
		t.Error("mapped-warm baseline diverged from cold baseline")
	}
	if !reflect.DeepEqual(p1.Params, p2.Params) {
		t.Error("mapped-warm params diverged from cold params")
	}
	if !reflect.DeepEqual(p1.Curves, p2.Curves) {
		t.Error("mapped-warm curves diverged from cold curves")
	}
	if p1.Trace.Len() != p2.Trace.Len() {
		t.Errorf("mapped trace length %d, cold %d", p2.Trace.Len(), p1.Trace.Len())
	}

	// A v2 payload in the plain container: LoadMapped declines it without
	// quarantine, and the heap decoder serves it.
	t.Run("plain-container-v2", func(t *testing.T) {
		d := t.TempDir()
		copyDir(t, dir, d)
		rewriteTracePlain(t, d, cfg, nil)
		r3 := NewRunner(cfg, 0, nil)
		if err := r3.AttachDiskStore(d, 0); err != nil {
			t.Fatal(err)
		}
		p3, err := r3.Prepare(ctx, "gap", program.Train, cfg)
		if err != nil {
			t.Fatal(err)
		}
		s3 := r3.StoreStats()
		if n := s3.Stages[StageTrace].SpillLoads; n != 1 {
			t.Errorf("trace spill_loads = %d, want 1", n)
		}
		if n := s3.Stages[StageTrace].SpillMapped; n != 0 {
			t.Errorf("trace spill_mapped = %d, want 0", n)
		}
		if s3.Disk.MappedFiles != 0 {
			t.Errorf("%d mapped files, want 0", s3.Disk.MappedFiles)
		}
		if s3.Disk.Quarantined != 0 {
			t.Errorf("quarantined %d files, want 0", s3.Disk.Quarantined)
		}
		for _, st := range spillableStages() {
			if n := r3.StagePrepares(st); n != 0 {
				t.Errorf("stage %s rebuilt %d times, want 0", st, n)
			}
		}
		if !reflect.DeepEqual(p1.Baseline, p3.Baseline) || !reflect.DeepEqual(p1.Params, p3.Params) ||
			!reflect.DeepEqual(p1.Curves, p3.Curves) || p1.Trace.Len() != p3.Trace.Len() {
			t.Error("heap-decoded preparation diverged from the cold one")
		}
	})

	// A v1-era file: a payload under the retired v1 trace magic (the v2
	// magic with its version digit set back to 1) in the plain container.
	// No decoder reads it any more, so it is quarantined, rebuilt and
	// re-spilled as v2.
	t.Run("plain-container-v1", func(t *testing.T) {
		d := t.TempDir()
		copyDir(t, dir, d)
		rewriteTracePlain(t, d, cfg, func(payload []byte) { payload[7] = '1' })
		r4 := NewRunner(cfg, 0, nil)
		if err := r4.AttachDiskStore(d, 0); err != nil {
			t.Fatal(err)
		}
		p4, err := r4.Prepare(ctx, "gap", program.Train, cfg)
		if err != nil {
			t.Fatalf("prepare over a v1-era store: %v", err)
		}
		s4 := r4.StoreStats()
		if s4.Disk.Quarantined != 1 {
			t.Errorf("quarantined %d files, want 1", s4.Disk.Quarantined)
		}
		if n := r4.StagePrepares(StageTrace); n != 1 {
			t.Errorf("trace stage rebuilt %d times, want 1", n)
		}
		for _, st := range spillableStages() {
			if st != StageTrace && r4.StagePrepares(st) != 0 {
				t.Errorf("stage %s rebuilt, want served from disk", st)
			}
		}
		if s4.Disk.Saves != 1 {
			t.Errorf("re-spilled %d artifacts, want 1 (the rebuilt trace)", s4.Disk.Saves)
		}
		raw, err := os.ReadFile(traceSpillFile(t, d))
		if err != nil {
			t.Fatal(err)
		}
		if len(raw) < 4096+8 || string(raw[:8]) != "LABART02" || string(raw[4096:4104]) != "PXTRC002" {
			t.Error("rebuilt trace was not re-spilled as a v2 payload in the aligned container")
		}
		if !reflect.DeepEqual(p1.Baseline, p4.Baseline) {
			t.Error("rebuilt baseline diverged from the cold one")
		}
	})
}

// TestMappedSpillCorruptionMatrix drives the mapped load path into every
// corruption class it can meet — a flipped bit inside a chunk's CRC-covered
// region, a truncated file tail, a stale v1 payload magic inside the aligned
// container, and a damaged container key — and pins the same contract as the
// heap path: quarantine, cold rebuild, re-spill, never a fatal error, and a
// baseline byte-identical to the committed golden.
//
// Payload geometry (see EXPERIMENTS.md): the LABART02 container header is
// padded to 4096, so the PXTRC002 payload starts at file offset 4096; its own
// header page puts the first chunk's CRC-covered columns at offset 8192.
func TestMappedSpillCorruptionMatrix(t *testing.T) {
	if !artifactdisk.MapSupported() {
		t.Skip("platform cannot map files")
	}
	ctx := context.Background()
	cfg := DefaultConfig()

	base := t.TempDir()
	r1 := NewRunner(cfg, 0, nil)
	if err := r1.AttachDiskStore(base, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := r1.Prepare(ctx, "gap", program.Train, cfg); err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "golden_gap_baseline.json"))
	if err != nil {
		t.Fatal(err)
	}

	flipAt := func(off int64) func(*testing.T, string) {
		return func(t *testing.T, path string) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if int64(len(raw)) <= off {
				t.Fatalf("trace file only %d bytes, cannot flip offset %d", len(raw), off)
			}
			raw[off] ^= 1
			if err := os.WriteFile(path, raw, 0o666); err != nil {
				t.Fatal(err)
			}
		}
	}
	scenarios := []struct {
		name    string
		corrupt func(*testing.T, string)
	}{
		{"chunk-bit-flip", flipAt(4096 + 4096 + 100)},
		{"truncated-tail", func(t *testing.T, path string) {
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, fi.Size()-4096); err != nil {
				t.Fatal(err)
			}
		}},
		// The retired v1 magic differs from PXTRC002 only in the version
		// digit, the payload's eighth byte.
		{"stale-v1-magic", func(t *testing.T, path string) {
			f, err := os.OpenFile(path, os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.WriteAt([]byte{'1'}, 4096+7); err != nil {
				t.Fatal(err)
			}
		}},
		// Offset 12 is the first byte of the container's key JSON.
		{"key-mismatch", flipAt(12)},
	}

	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			dir := t.TempDir()
			copyDir(t, base, dir)
			sc.corrupt(t, traceSpillFile(t, dir))

			r2 := NewRunner(cfg, 0, nil)
			if err := r2.AttachDiskStore(dir, 0); err != nil {
				t.Fatal(err)
			}
			p2, err := r2.Prepare(ctx, "gap", program.Train, cfg)
			if err != nil {
				t.Fatalf("prepare over corrupt mapped store: %v", err)
			}
			stats := r2.StoreStats()
			if stats.Disk.Quarantined != 1 {
				t.Errorf("quarantined %d files, want 1", stats.Disk.Quarantined)
			}
			if n := r2.StagePrepares(StageTrace); n != 1 {
				t.Errorf("trace stage rebuilt %d times, want 1", n)
			}
			for _, st := range spillableStages() {
				if st != StageTrace && r2.StagePrepares(st) != 0 {
					t.Errorf("stage %s rebuilt, want served from disk", st)
				}
			}
			if n := stats.Stages[StageTrace].SpillMapped; n != 0 {
				t.Errorf("corrupt trace served mapped %d times, want 0", n)
			}
			if stats.Disk.Saves != 1 {
				t.Errorf("re-spilled %d artifacts, want 1 (the rebuilt trace)", stats.Disk.Saves)
			}

			got, err := json.MarshalIndent(p2.Baseline, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			if string(got) != string(golden) {
				t.Error("baseline rebuilt after mapped corruption diverged from golden")
			}
		})
	}
}
