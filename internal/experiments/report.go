package experiments

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/cpu"
)

// Report is a structured, JSON-marshalable experiment artifact. Every
// figure, table and campaign entry point returns one; Render turns it into
// the human-readable table the paper's reproduction prints. Computation and
// rendering are fully split: Render reads only the exported (serialized)
// fields, so a report decoded from JSON renders identically to the freshly
// computed one.
type Report interface {
	Render() string
}

// BaselineReport summarizes one benchmark's unoptimized run.
type BaselineReport struct {
	Cycles         int64
	IPC            float64
	DemandL2Misses int64
	EnergyTotal    float64
}

func baselineReport(res *cpu.Result) *BaselineReport {
	return &BaselineReport{
		Cycles:         res.Cycles,
		IPC:            res.IPC(),
		DemandL2Misses: res.DemandL2Misses,
		EnergyTotal:    res.Energy.Total(),
	}
}

// RunReport is the JSON-stable summary of one (benchmark, target) measured
// run: the paper's derived percentages plus the headline raw numbers.
type RunReport struct {
	Target        string
	PThreads      int
	Cycles        int64
	EnergyTotal   float64
	SpeedupPct    float64
	EnergySavePct float64
	EDSavePct     float64
	ED2SavePct    float64
	FullCovPct    float64
	PartCovPct    float64
	PInstIncPct   float64
	UsefulPct     float64
	AvgPThreadLen float64

	// SimCyclesPerSec is the measured simulator throughput of this run
	// (simulated cycles per wall-clock second). It is a substrate health
	// metric, not a paper artifact: it varies run to run, so determinism
	// checks must ignore it (omitempty lets them zero it out).
	SimCyclesPerSec float64 `json:",omitempty"`
}

func runReport(r *TargetRun) RunReport {
	return RunReport{
		Target:          r.Target.String(),
		PThreads:        len(r.Sel.PThreads),
		Cycles:          r.Res.Cycles,
		EnergyTotal:     r.Res.Energy.Total(),
		SimCyclesPerSec: r.SimCyclesPerSec(),
		SpeedupPct:      r.SpeedupPct,
		EnergySavePct:   r.EnergySavePct,
		EDSavePct:       r.EDSavePct,
		ED2SavePct:      r.ED2SavePct,
		FullCovPct:      r.FullCovPct,
		PartCovPct:      r.PartCovPct,
		PInstIncPct:     r.PInstIncPct,
		UsefulPct:       r.UsefulPct,
		AvgPThreadLen:   r.AvgPThreadLen,
	}
}

// TimePct is an execution-time breakdown by critical-path category,
// normalized to the unoptimized run's cycles = 100.
type TimePct struct {
	Mem    float64
	L2     float64
	Exec   float64
	Commit float64
	Fetch  float64
	Total  float64
}

func timePct(base, r *cpu.Result) TimePct {
	n := float64(base.Cycles) / 100
	return TimePct{
		Mem:    float64(r.TimeBreakdown[cpu.CatMem]) / n,
		L2:     float64(r.TimeBreakdown[cpu.CatL2]) / n,
		Exec:   float64(r.TimeBreakdown[cpu.CatExec]) / n,
		Commit: float64(r.TimeBreakdown[cpu.CatCommit]) / n,
		Fetch:  float64(r.TimeBreakdown[cpu.CatFetch]) / n,
		Total:  float64(r.Cycles) / n,
	}
}

// EnergyPct is an energy breakdown by structure and thread class, normalized
// to the unoptimized run's energy = 100.
type EnergyPct struct {
	ImemMain float64
	DmemMain float64
	L2Main   float64
	OoOMain  float64
	ROBBpred float64
	Idle     float64
	ImemPth  float64
	DmemPth  float64
	L2Pth    float64
	OoOPth   float64
	Total    float64
}

func energyPct(base, r *cpu.Result) EnergyPct {
	n := base.Energy.Total() / 100
	e := r.Energy
	return EnergyPct{
		ImemMain: e.ImemMain / n,
		DmemMain: e.DmemMain / n,
		L2Main:   e.L2Main / n,
		OoOMain:  e.OoOMain / n,
		ROBBpred: e.ROBBpred / n,
		Idle:     e.Idle / n,
		ImemPth:  e.ImemPth / n,
		DmemPth:  e.DmemPth / n,
		L2Pth:    e.L2Pth / n,
		OoOPth:   e.OoOPth / n,
		Total:    e.Total() / n,
	}
}

// Figure2Row is one benchmark × run-flavour breakdown pair ("N" unoptimized,
// "O" original-PTHSEL pre-execution).
type Figure2Row struct {
	Bench  string
	Run    string
	Time   TimePct
	Energy EnergyPct
}

// Figure2Report reproduces the paper's Figure 2: execution-time and energy
// breakdowns for unoptimized execution and PTHSEL-driven pre-execution.
type Figure2Report struct {
	Rows []Figure2Row
}

// Render formats both breakdown tables.
func (f *Figure2Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 2 (left): execution-time breakdown, %% of unoptimized cycles\n")
	fmt.Fprintf(&b, "%-10s %-3s %7s %7s %7s %7s %7s %8s\n", "bench", "run", "mem", "L2", "exec", "commit", "fetch", "total")
	for _, row := range f.Rows {
		t := row.Time
		fmt.Fprintf(&b, "%-10s %-3s %7.1f %7.1f %7.1f %7.1f %7.1f %8.1f\n",
			row.Bench, row.Run, t.Mem, t.L2, t.Exec, t.Commit, t.Fetch, t.Total)
	}
	fmt.Fprintf(&b, "\nFigure 2 (right): energy breakdown, %% of unoptimized energy\n")
	fmt.Fprintf(&b, "%-10s %-3s %6s %6s %6s %6s %6s %6s %6s %6s %6s %6s %8s\n",
		"bench", "run", "imem", "dmem", "l2", "OoO", "rob+bp", "idle", "imemP", "dmemP", "l2P", "OoOP", "total")
	for _, row := range f.Rows {
		e := row.Energy
		fmt.Fprintf(&b, "%-10s %-3s %6.1f %6.1f %6.1f %6.1f %6.1f %6.1f %6.1f %6.1f %6.1f %6.1f %8.1f\n",
			row.Bench, row.Run,
			e.ImemMain, e.DmemMain, e.L2Main, e.OoOMain, e.ROBBpred, e.Idle,
			e.ImemPth, e.DmemPth, e.L2Pth, e.OoOPth, e.Total)
	}
	return b.String()
}

// BenchRuns couples one benchmark with its per-target run summaries, in the
// report's target order.
type BenchRuns struct {
	Name string
	Runs []RunReport
}

// GMeanRow is one target's geometric-mean improvements across a report's
// benchmarks.
type GMeanRow struct {
	Target        string
	SpeedupPct    float64
	EnergySavePct float64
	EDSavePct     float64
}

// Figure3Report reproduces the paper's Figure 3: improvements and
// diagnostics for the four primary targets across the benchmark suite.
type Figure3Report struct {
	Targets    []string
	Benchmarks []BenchRuns
	GMeans     []GMeanRow
}

// Render formats the improvements and diagnostics tables.
func (f *Figure3Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3 (top): %%IPC gain / %%energy save / %%ED save\n")
	fmt.Fprintf(&b, "%-10s", "bench")
	for _, tgt := range f.Targets {
		fmt.Fprintf(&b, " |%22s", tgt+" (ipc/energy/ED)")
	}
	fmt.Fprintln(&b)
	for _, br := range f.Benchmarks {
		fmt.Fprintf(&b, "%-10s", br.Name)
		for _, r := range br.Runs {
			fmt.Fprintf(&b, " |%7.1f%7.1f%8.1f", r.SpeedupPct, r.EnergySavePct, r.EDSavePct)
		}
		fmt.Fprintln(&b)
	}
	fmt.Fprintf(&b, "%-10s", "GMean")
	for _, g := range f.GMeans {
		fmt.Fprintf(&b, " |%7.1f%7.1f%8.1f", g.SpeedupPct, g.EnergySavePct, g.EDSavePct)
	}
	fmt.Fprintln(&b)

	fmt.Fprintf(&b, "\nFigure 3 (diagnostics): full+part coverage %% / %%useful spawns / %%p-inst increase / avg length\n")
	fmt.Fprintf(&b, "%-10s", "bench")
	for _, tgt := range f.Targets {
		fmt.Fprintf(&b, " |%28s", tgt+" (cov/useful/pinst/len)")
	}
	fmt.Fprintln(&b)
	for _, br := range f.Benchmarks {
		fmt.Fprintf(&b, "%-10s", br.Name)
		for _, r := range br.Runs {
			fmt.Fprintf(&b, " |%5.0f+%-4.0f%6.0f%8.1f%6.1f",
				r.FullCovPct, r.PartCovPct, r.UsefulPct, r.PInstIncPct, r.AvgPThreadLen)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// Table3Row is one benchmark's model-validation ratios: measured reduction
// divided by predicted reduction (1.0 = perfect; <1 = over-estimation).
type Table3Row struct {
	Name        string
	LatencyPred float64 // (Lbase − Lpe) / LADVagg
	EnergyPred  float64 // (Ebase − Epe) / EADVagg
	EDPred      float64 // (Pbase − Ppe) / PADVagg (composite at W = 0.5)
}

// Table3Report reproduces the paper's validation table for L-p-threads.
type Table3Report struct {
	Rows []Table3Row
}

// Render formats the validation table.
func (t *Table3Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3: PTHSEL+E model validation (actual/predicted; 1.0 = exact)\n")
	fmt.Fprintf(&b, "%-24s", "Validation")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, " %10s", r.Name)
	}
	fmt.Fprintln(&b)
	for _, line := range []struct {
		label string
		get   func(Table3Row) float64
	}{
		{"Latency prediction", func(r Table3Row) float64 { return r.LatencyPred }},
		{"Energy prediction", func(r Table3Row) float64 { return r.EnergyPred }},
		{"ED prediction", func(r Table3Row) float64 { return r.EDPred }},
	} {
		fmt.Fprintf(&b, "%-24s", line.label)
		for _, r := range t.Rows {
			fmt.Fprintf(&b, " %10.2f", line.get(r))
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// Figure4Report reproduces the realistic-profiling experiment (§5.3):
// p-threads selected from Ref-input profiles, measured on the Train input.
type Figure4Report struct {
	Targets    []string
	Benchmarks []BenchRuns
}

// Render formats the realistic-profiling table.
func (f *Figure4Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4: realistic profiling (select on ref, measure on train)\n")
	fmt.Fprintf(&b, "%-10s", "bench")
	for _, tgt := range f.Targets {
		fmt.Fprintf(&b, " |%22s", tgt+" (ipc/energy/ED)")
	}
	fmt.Fprintln(&b)
	for _, br := range f.Benchmarks {
		fmt.Fprintf(&b, "%-10s", br.Name)
		for _, r := range br.Runs {
			fmt.Fprintf(&b, " |%7.1f%7.1f%8.1f", r.SpeedupPct, r.EnergySavePct, r.EDSavePct)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// Figure5Point is one (benchmark, axis point) evaluation of a sensitivity
// sweep.
type Figure5Point struct {
	Bench string
	Point string
	Runs  []RunReport
}

// Figure5Report reproduces one of the paper's Figure 5 sensitivity sweeps.
type Figure5Report struct {
	Axis    string
	Targets []string
	Points  []Figure5Point
}

// Render formats the sweep table.
func (f *Figure5Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5: sensitivity to %s\n", f.Axis)
	fmt.Fprintf(&b, "%-10s %-9s", "bench", "point")
	for _, tgt := range f.Targets {
		fmt.Fprintf(&b, " |%22s", tgt+" (ipc/energy/ED)")
	}
	fmt.Fprintln(&b)
	for _, pt := range f.Points {
		fmt.Fprintf(&b, "%-10s %-9s", pt.Bench, pt.Point)
		for _, r := range pt.Runs {
			fmt.Fprintf(&b, " |%7.1f%7.1f%8.1f", r.SpeedupPct, r.EnergySavePct, r.EDSavePct)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// SweepPointReport is one (benchmark, grid point) evaluation of a
// declarative sweep: the point's per-axis labels and its per-target runs.
type SweepPointReport struct {
	Bench string
	// Workload is the grid's label for a generated-workload row (the Bench
	// field carries the registered canonical name); empty for named
	// benchmarks.
	Workload string   `json:",omitempty"`
	Labels   []string `json:",omitempty"` // one per axis; empty for the base point
	Runs     []RunReport
}

// benchLabel is the bench-column display name: the workload label when the
// row is a generated workload, the benchmark name otherwise.
func (p SweepPointReport) benchLabel() string {
	if p.Workload != "" {
		return p.Workload
	}
	return p.Bench
}

// Point renders the per-axis labels as a single point name.
func (p SweepPointReport) Point() string {
	if len(p.Labels) == 0 {
		return "base"
	}
	return strings.Join(p.Labels, "/")
}

// SweepReport is the structured result of a declarative multi-axis sweep:
// the cartesian grid's points, ordered benchmark-major then row-major
// across the axes (first axis slowest).
type SweepReport struct {
	Axes    []string `json:",omitempty"`
	Targets []string
	Points  []SweepPointReport
}

// Render formats the sweep grid table.
func (s *SweepReport) Render() string {
	var b strings.Builder
	axes := strings.Join(s.Axes, " × ")
	if axes == "" {
		axes = "base configuration"
	}
	fmt.Fprintf(&b, "Sweep: %s (%d points)\n", axes, len(s.Points))
	// Generated-workload labels and canonical gen/ names overflow the fixed
	// 10-char bench column, so size it to the widest row label.
	wb, wp := len("bench"), len("point")
	for _, pt := range s.Points {
		if n := len(pt.benchLabel()); n > wb {
			wb = n
		}
		if n := len(pt.Point()); n > wp {
			wp = n
		}
	}
	if wp < 18 {
		wp = 18
	}
	fmt.Fprintf(&b, "%-*s %-*s", wb, "bench", wp, "point")
	for _, tgt := range s.Targets {
		fmt.Fprintf(&b, " |%22s", tgt+" (ipc/energy/ED)")
	}
	fmt.Fprintln(&b)
	for _, pt := range s.Points {
		fmt.Fprintf(&b, "%-*s %-*s", wb, pt.benchLabel(), wp, pt.Point())
		for _, r := range pt.Runs {
			fmt.Fprintf(&b, " |%7.1f%7.1f%8.1f", r.SpeedupPct, r.EnergySavePct, r.EDSavePct)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// ED2Row is one benchmark's L-vs-P2 ED² comparison.
type ED2Row struct {
	Bench     string
	LSavePct  float64
	P2SavePct float64
}

// ED2Report reproduces the §5.1 ED² discussion: P2-p-threads behave like
// L-p-threads; both improve ED² substantially.
type ED2Report struct {
	Rows    []ED2Row
	GMeanL  float64
	GMeanP2 float64
}

// Render formats the ED² comparison.
func (e *ED2Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ED² study: L vs P2 p-threads (%%ED2 save)\n")
	fmt.Fprintf(&b, "%-10s %10s %10s\n", "bench", "L", "P2")
	for _, r := range e.Rows {
		fmt.Fprintf(&b, "%-10s %10.1f %10.1f\n", r.Bench, r.LSavePct, r.P2SavePct)
	}
	fmt.Fprintf(&b, "%-10s %10.1f %10.1f\n", "GMean", e.GMeanL, e.GMeanP2)
	return b.String()
}

// CampaignBench is one benchmark's campaign outcome: either a baseline and
// per-target runs, or the error that prevented them.
type CampaignBench struct {
	Name     string
	Error    string          `json:",omitempty"`
	Baseline *BaselineReport `json:",omitempty"`
	Runs     []RunReport     `json:",omitempty"`
}

// CampaignReport is the partial-result outcome of a bounded-parallel
// campaign: per-benchmark successes and failures side by side, so one bad
// benchmark no longer discards the rest of the batch.
type CampaignReport struct {
	Targets    []string
	Benchmarks []CampaignBench

	errs []error // per-benchmark errors, parallel to Benchmarks (nil = ok)
}

// Err joins every per-benchmark failure (nil when all benchmarks
// succeeded). After a JSON round-trip the structured errors are gone;
// rebuild them from the entries' Error strings.
func (c *CampaignReport) Err() error {
	if c.errs != nil {
		return errors.Join(c.errs...)
	}
	var errs []error
	for _, b := range c.Benchmarks {
		if b.Error != "" {
			errs = append(errs, fmt.Errorf("%s: %s", b.Name, b.Error))
		}
	}
	return errors.Join(errs...)
}

// Failed counts benchmarks that did not complete (errored or never ran).
func (c *CampaignReport) Failed() int {
	n := 0
	for _, b := range c.Benchmarks {
		if b.Error != "" || b.Baseline == nil {
			n++
		}
	}
	return n
}

// Render formats the campaign summary table, successes first.
func (c *CampaignReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Campaign: %d benchmarks × targets %s (%d failed)\n",
		len(c.Benchmarks), strings.Join(c.Targets, ","), c.Failed())
	fmt.Fprintf(&b, "%-10s %12s %10s", "bench", "base-cycles", "L2miss")
	for _, tgt := range c.Targets {
		fmt.Fprintf(&b, " |%22s", tgt+" (ipc/energy/ED)")
	}
	fmt.Fprintln(&b)
	for _, e := range c.Benchmarks {
		if e.Error != "" || e.Baseline == nil {
			continue
		}
		fmt.Fprintf(&b, "%-10s %12d %10d", e.Name, e.Baseline.Cycles, e.Baseline.DemandL2Misses)
		for _, r := range e.Runs {
			fmt.Fprintf(&b, " |%7.1f%7.1f%8.1f", r.SpeedupPct, r.EnergySavePct, r.EDSavePct)
		}
		fmt.Fprintln(&b)
	}
	for _, e := range c.Benchmarks {
		if e.Error != "" {
			fmt.Fprintf(&b, "%-10s FAILED: %s\n", e.Name, e.Error)
		}
	}
	return b.String()
}
