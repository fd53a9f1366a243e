package slicer

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/profile"
	"repro/internal/trace"
)

// paperLoop reproduces the shape of the paper's Figure 1 example: a loop
// with an induction, a control decision selecting between two index
// computations, and a problem load indexed by the result.
//
//	for i in 0..n-1:
//	  if flag[i]: rxid = xact[i].rxid else rxid = xact[i].g_rxid
//	  receipts += rx[rxid].price
func paperLoop(n int) *isa.Program {
	const (
		rI    = isa.Reg(1)
		rN    = isa.Reg(2)
		rT    = isa.Reg(3)
		rFlag = isa.Reg(4)
		rRxid = isa.Reg(5)
		rA    = isa.Reg(6)
		rV    = isa.Reg(7)
		rAcc  = isa.Reg(8)
		rC    = isa.Reg(9)
	)
	// Layout: flags [0,n), xact.rxid [n,2n), xact.g_rxid [2n,3n), rx [3n,3n+4096).
	rxBase := 3 * n
	mem := make([]int64, rxBase+4096)
	lc := newTestLCG(7)
	for i := 0; i < n; i++ {
		mem[i] = int64(lc() % 2)
		mem[n+i] = int64(lc() % 4096)
		mem[2*n+i] = int64(lc() % 4096)
	}
	for i := 0; i < 4096; i++ {
		mem[rxBase+i] = int64(lc() % 100)
	}
	b := isa.NewBuilder("paperloop")
	b.MovI(rI, 0)
	b.MovI(rN, int64(n))
	b.Label("top")
	b.ShlI(rT, rI, 3)
	b.Load(rFlag, rT, 0)
	b.BrZ(rFlag, "gpath")
	b.Load(rRxid, rT, int64(n*8)) // xact[i].rxid
	b.Jmp("join")
	b.Label("gpath")
	b.Load(rRxid, rT, int64(2*n*8)) // xact[i].g_rxid
	b.Label("join")
	b.ShlI(rA, rRxid, 3)
	b.Load(rV, rA, int64(rxBase*8)) // rx[rxid].price: the problem load
	b.Add(rAcc, rAcc, rV)
	b.AddI(rI, rI, 1)
	b.CmpLT(rC, rI, rN)
	b.BrNZ(rC, "top")
	b.Halt()
	b.SetMem(mem)
	return b.MustBuild()
}

func newTestLCG(seed uint64) func() uint64 {
	s := seed
	return func() uint64 {
		s = s*6364136223846793005 + 1442695040888963407
		return s >> 16
	}
}

func buildTestTrees(t testing.TB, p *isa.Program, cfg Config) ([]*Tree, *trace.Trace, *profile.Profile) {
	t.Helper()
	tr, err := trace.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	// A tiny hierarchy so even the small test arrays miss.
	hier := cache.DefaultHierConfig()
	hier.L1D = cache.Config{SizeBytes: 1 << 10, Ways: 2, BlockBytes: 64, HitLatency: 2}
	hier.L2 = cache.Config{SizeBytes: 4 << 10, Ways: 4, BlockBytes: 64, HitLatency: 12}
	prof := profile.Collect(tr, profile.ConfigFromHier(hier))
	problems := prof.ProblemLoads(0.95, 10)
	if len(problems) == 0 {
		t.Fatal("no problem loads in test workload")
	}
	return BuildTrees(tr, prof, problems, cfg), tr, prof
}

func TestTreeStructureOnPaperExample(t *testing.T) {
	trees, _, _ := buildTestTrees(t, paperLoop(3000), DefaultConfig())
	if len(trees) == 0 {
		t.Fatal("no trees")
	}
	// Find a control fork: some node whose children diverge by static PC —
	// the rx load's slice forks where rxid comes from either xact[i].rxid
	// or xact[i].g_rxid, mirroring the paper's Figure 1b.
	var fork *Node
	for _, cand := range trees {
		cand.Walk(func(n *Node) {
			if fork == nil && len(n.Children) >= 2 {
				fork = n
			}
		})
		if fork == nil && len(cand.Root.Children) >= 2 {
			fork = cand.Root
		}
	}
	if fork == nil {
		t.Fatal("no control fork (rxid vs g_rxid paths) found in any tree")
	}
	if fork.Children[0].PC == fork.Children[1].PC {
		t.Error("fork children share a PC")
	}
	// Children partition the fork's covered misses.
	var childSum int64
	for _, c := range fork.Children {
		childSum += c.DCptcm
	}
	if childSum > fork.DCptcm {
		t.Errorf("children cover %d > fork %d", childSum, fork.DCptcm)
	}
	if childSum < fork.DCptcm*9/10 {
		t.Errorf("children cover only %d of %d misses", childSum, fork.DCptcm)
	}
}

func TestDCInvariants(t *testing.T) {
	trees, _, _ := buildTestTrees(t, paperLoop(2000), DefaultConfig())
	for _, tree := range trees {
		tree.Walk(func(n *Node) {
			if n.DCptcm > n.Parent.DCptcm {
				t.Errorf("child DCptcm %d exceeds parent %d", n.DCptcm, n.Parent.DCptcm)
			}
			if n.DCptcm <= 0 {
				t.Error("node with zero coverage present in tree")
			}
			if n.DCtrig < n.DCptcm {
				t.Errorf("DCtrig %d below DCptcm %d: trigger executes at least once per covered miss", n.DCtrig, n.DCptcm)
			}
			if n.Depth != n.Parent.Depth+1 {
				t.Error("depth inconsistency")
			}
		})
	}
}

func TestBodyExecutionOrder(t *testing.T) {
	trees, tr, _ := buildTestTrees(t, paperLoop(2000), DefaultConfig())
	tree := trees[0]
	var deepest *Node
	tree.Walk(func(n *Node) {
		if deepest == nil || n.Depth > deepest.Depth {
			deepest = n
		}
	})
	if deepest == nil {
		t.Fatal("empty tree")
	}
	body := deepest.Body(tr.Prog)
	if len(body) != deepest.Depth {
		t.Errorf("body length %d != depth %d", len(body), deepest.Depth)
	}
	// The last body instruction must be the problem load.
	last := body[len(body)-1]
	if !last.IsLoad() {
		t.Errorf("body must end at the problem load, ends with %s", last)
	}
	// No control instructions in any body (control-less p-threads).
	for _, in := range body {
		if in.IsControl() || in.IsStore() {
			t.Errorf("body contains %s", in)
		}
	}
}

func TestWindowBoundsSliceDepth(t *testing.T) {
	narrow := DefaultConfig()
	narrow.Window = 16
	trees, _, _ := buildTestTrees(t, paperLoop(2000), narrow)
	for _, tree := range trees {
		tree.Walk(func(n *Node) {
			if n.MeanDist() > 16 {
				t.Errorf("node dist %.1f exceeds window 16", n.MeanDist())
			}
		})
	}
}

func TestMaxLenBoundsBody(t *testing.T) {
	short := DefaultConfig()
	short.MaxLen = 5
	trees, _, _ := buildTestTrees(t, paperLoop(2000), short)
	for _, tree := range trees {
		tree.Walk(func(n *Node) {
			if n.Depth > 5 {
				t.Errorf("node depth %d exceeds MaxLen 5", n.Depth)
			}
		})
	}
}

func TestSamplingScales(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxSamples = 50
	trees, _, _ := buildTestTrees(t, paperLoop(3000), cfg)
	for _, tree := range trees {
		if tree.Sampled > 51 {
			t.Errorf("sampled %d with cap 50", tree.Sampled)
		}
		if tree.Scale < 1 {
			t.Errorf("scale %f below 1", tree.Scale)
		}
	}
}

func TestInductionUnrollingAppearsInDeepSlices(t *testing.T) {
	trees, tr, _ := buildTestTrees(t, paperLoop(3000), DefaultConfig())
	// Deep candidates must contain multiple instances of the induction
	// (addi rI, rI, 1) — the unrolling the paper describes.
	found := false
	for _, tree := range trees {
		tree.Walk(func(n *Node) {
			if n.Depth < 6 {
				return
			}
			body := n.Body(tr.Prog)
			count := 0
			for _, in := range body {
				if isInduction(in) {
					count++
				}
			}
			if count >= 2 {
				found = true
			}
		})
	}
	if !found {
		t.Error("no deep candidate contains an unrolled induction")
	}
}

func TestMaxHeap(t *testing.T) {
	var h maxHeap
	for _, v := range []int64{3, 9, 1, 7, 5, 9} {
		h.push(v)
	}
	want := []int64{9, 9, 7, 5, 3, 1}
	for _, w := range want {
		if got := h.pop(); got != w {
			t.Fatalf("pop = %d, want %d", got, w)
		}
	}
	if h.len() != 0 {
		t.Error("heap not drained")
	}
}
