package main

import (
	"strings"
	"testing"

	preexec "repro"
)

// TestParseCLIValidatesLocally pins the client-side contract: a bad -axis,
// -gen, -targets or -engine is rejected during flag parsing — with -addr
// set, before anything would be submitted to a daemon.
func TestParseCLIValidatesLocally(t *testing.T) {
	for _, tc := range []struct {
		name    string
		args    []string
		wantSub string
	}{
		{"bad axis", []string{"-addr", "http://x", "-axis", "bogus"}, "unknown sweep axis"},
		{"bad gen family", []string{"-addr", "http://x", "-gen", "no-such-family:1"}, "family"},
		{"bad gen knob", []string{"-addr", "http://x", "-gen", "pointer-chase:1:zzz=3"}, "zzz"},
		{"bad target", []string{"-addr", "http://x", "-targets", "Q"}, "unknown target"},
		{"bad engine", []string{"-addr", "http://x", "-engine", "bogus"}, "valid engines: event, scan"},
		{"bad engine local", []string{"-engine", "bogus"}, "valid engines: event, scan"},
		{"batched engine", []string{"-engine", "batched"}, "valid engines: event, scan"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := parseCLI(tc.args); err == nil {
				t.Fatalf("parseCLI(%q) accepted bad flags", tc.args)
			} else if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q missing %q", err, tc.wantSub)
			}
		})
	}
}

// TestParseCLIRemoteArgs verifies the remote submission carries exactly the
// validated flag values, and that engines parse into the typed API values
// the local path feeds the Lab.
func TestParseCLIRemoteArgs(t *testing.T) {
	c, err := parseCLI([]string{"-addr", "http://x", "-axis", "idle, mem",
		"-gen", "pointer-chase:7", "-targets", "L, P2", "-engine", "scan"})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(c.axisNames, "|"); got != "idle|mem" {
		t.Errorf("axisNames = %q", got)
	}
	if got := strings.Join(c.genSpecs, "|"); got != "pointer-chase:7" {
		t.Errorf("genSpecs = %q", got)
	}
	if got := strings.Join(c.targetNames, "|"); got != "L|P2" {
		t.Errorf("targetNames = %q", got)
	}
	if c.engine != preexec.EngineScan {
		t.Errorf("engine = %q, want scan", c.engine)
	}
	if len(c.names) != 0 {
		t.Errorf("-gen alone should sweep no built-ins, got %v", c.names)
	}

	c, err = parseCLI([]string{"-axis", "l2"})
	if err != nil {
		t.Fatal(err)
	}
	if c.engine != preexec.EngineEvent {
		t.Errorf("defaults: engine = %q, want event", c.engine)
	}
	if len(c.names) == 0 {
		t.Error("default benchmark triple missing")
	}
}
