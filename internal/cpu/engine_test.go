package cpu

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/trace"
)

// engineConfigs returns configurations chosen to stress the paths where the
// event-driven scheduler could diverge from the reference scan: tiny windows
// (budget truncation of the RS-free walk), few MSHRs (rejected loads that
// must replay cycle-by-cycle), starved ports, and minimal contexts.
func engineConfigs() map[string]Config {
	tiny := noPrefConfig()
	tiny.ROBSize = 16
	tiny.RSSize = 8
	tiny.PhysRegs = 24
	tiny.IssueWidth = 2
	tiny.DispatchWidth = 2
	tiny.CommitWidth = 2
	tiny.FetchWidth = 2
	tiny.FetchQCap = 6

	mshr := noPrefConfig()
	mshr.Hier.MSHRs = 1
	mshr.LoadPorts = 1

	ctxs := noPrefConfig()
	ctxs.Contexts = 2

	return map[string]Config{
		"default":       DefaultConfig(),
		"nopref":        noPrefConfig(),
		"tiny-window":   tiny,
		"mshr-pressure": mshr,
		"two-contexts":  ctxs,
	}
}

// engineWorkloads returns trace/p-thread pairs covering serial chains,
// wide ILP, memory-bound striding with useful, useless and aborting
// p-threads, and mispredict-heavy control flow.
func engineWorkloads(t *testing.T) map[string]struct {
	tr  *trace.Trace
	pts []*PThread
} {
	t.Helper()
	stride, inducPC, loadPC := strideWalk(300, 12)
	wild, wInduc, wLoad := strideWalk(60, 4)
	out := map[string]struct {
		tr  *trace.Trace
		pts []*PThread
	}{
		"chain":        {tr: trace.MustRun(aluChain(400))},
		"parallel":     {tr: trace.MustRun(aluParallel(400))},
		"stride-base":  {tr: trace.MustRun(stride)},
		"stride-pth":   {tr: trace.MustRun(stride), pts: []*PThread{stridePThread(inducPC, loadPC, 16)}},
		"stride-abort": {tr: trace.MustRun(wild), pts: []*PThread{stridePThread(wInduc, wLoad, 100000)}},
	}
	// Mispredict-heavy: data-dependent branches.
	b := isa.NewBuilder("chaos")
	b.MovI(1, 0)
	b.MovI(2, 1500)
	b.Label("top")
	b.AddI(1, 1, 1)
	b.MulI(3, 1, 2654435761)
	b.ShrI(3, 3, 13)
	b.AndI(4, 3, 1)
	b.BrZ(4, "skip")
	b.AddI(5, 5, 1)
	b.Label("skip")
	b.CmpLT(4, 1, 2)
	b.BrNZ(4, "top")
	b.Halt()
	out["chaos"] = struct {
		tr  *trace.Trace
		pts []*PThread
	}{tr: trace.MustRun(b.MustBuild())}
	return out
}

// TestEnginesAgreeStress cross-checks the two engines over the stress
// matrix: every (config, workload) pair must produce deeply equal Results.
func TestEnginesAgreeStress(t *testing.T) {
	workloads := engineWorkloads(t)
	for cfgName, cfg := range engineConfigs() {
		for wlName, wl := range workloads {
			evCfg := cfg
			evCfg.Engine = EngineEvent
			scCfg := cfg
			scCfg.Engine = EngineScan
			ev, err1 := Run(evCfg, wl.tr, wl.pts)
			sc, err2 := Run(scCfg, wl.tr, wl.pts)
			if err1 != nil || err2 != nil {
				t.Fatalf("%s/%s: event err=%v scan err=%v", cfgName, wlName, err1, err2)
			}
			if !reflect.DeepEqual(ev, sc) {
				t.Errorf("%s/%s: engines disagree\nevent: %+v\nscan:  %+v", cfgName, wlName, ev, sc)
			}
		}
	}
}

// TestUnknownEngineRejected pins the Engine knob's validation: ParseEngine
// and the simulator accept only the event and scan engines, and ParseEngine
// names the valid set when it refuses.
func TestUnknownEngineRejected(t *testing.T) {
	assertEngineRejected(t, "bogus")
	for name, want := range map[string]Engine{"": EngineEvent, "event": EngineEvent, "scan": EngineScan} {
		if got, err := ParseEngine(name); err != nil || got != want {
			t.Errorf("ParseEngine(%q) = %q, %v; want %q", name, got, err, want)
		}
	}
}

// TestBatchedEngineRejected pins that "batched" is no longer an engine:
// configs naming it are refused by ParseEngine and the simulator alike
// rather than silently run on another engine.
func TestBatchedEngineRejected(t *testing.T) {
	assertEngineRejected(t, "batched")
}

func assertEngineRejected(t *testing.T, name string) {
	t.Helper()
	if _, err := ParseEngine(name); err == nil {
		t.Errorf("ParseEngine(%q) accepted", name)
	} else if !strings.Contains(err.Error(), "valid engines: event, scan") {
		t.Errorf("ParseEngine(%q): error %q does not list the valid engines", name, err)
	}
	cfg := DefaultConfig()
	cfg.Engine = Engine(name)
	if _, err := Run(cfg, trace.MustRun(aluChain(4)), nil); err == nil {
		t.Errorf("engine %q accepted by the simulator", name)
	}
}
