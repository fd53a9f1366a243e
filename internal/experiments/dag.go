package experiments

// DAG export: a sweep grid's stage dependency DAG as a structured report
// plus a Graphviz DOT rendering, served by `report -dag` and the daemon's
// GET /v1/jobs/{id}/dag. The export is a plan — stage nodes deduplicated
// across grid points by artifact key, one measurement sink per grid point,
// every node annotated with its cold/cached/spill status at planning time —
// and never executes anything.

import (
	"fmt"
	"strings"

	"repro/internal/program"
)

// DAG node statuses.
const (
	dagCold    = "cold"    // the stage would execute
	dagCached  = "cached"  // already complete in the in-memory store
	dagSpill   = "spill"   // resident in the disk tier; a load, not a build
	dagMeasure = "measure" // a measurement sink (one grid point)
)

// DAGNode is one node of an exported stage DAG: a stage build for one
// workload, or a measurement sink for one grid point.
type DAGNode struct {
	Bench string `json:"bench"`
	Input string `json:"input,omitempty"`
	Stage string `json:"stage"`
	// Point carries the grid-point label on measurement sinks.
	Point string `json:"point,omitempty"`
	// Status is cold, cached, spill or measure (see the dag* constants).
	Status string `json:"status"`
}

// DAGEdge is one dependency edge, by node index (From must complete before
// To can start).
type DAGEdge struct {
	From int `json:"from"`
	To   int `json:"to"`
}

// DAGReport is the stage DAG of one sweep grid, nodes in insertion
// (topological) order.
type DAGReport struct {
	Axes  []string  `json:"axes,omitempty"`
	Nodes []DAGNode `json:"nodes"`
	Edges []DAGEdge `json:"edges"`
}

// dagFill maps node statuses to DOT fill colors.
var dagFill = map[string]string{
	dagCold:    "lightblue",
	dagCached:  "palegreen",
	dagSpill:   "khaki",
	dagMeasure: "lightgrey",
}

// DOT renders the DAG in Graphviz dot syntax, one box per node annotated
// with its status.
func (d *DAGReport) DOT() string {
	var sb strings.Builder
	sb.WriteString("digraph stages {\n")
	sb.WriteString("  rankdir=LR;\n")
	sb.WriteString("  node [shape=box, style=filled, fontname=\"monospace\"];\n")
	for i, n := range d.Nodes {
		head := n.Bench
		if n.Input != "" {
			head += "/" + n.Input
		}
		line2 := n.Stage
		if n.Point != "" {
			line2 += " @ " + n.Point
		}
		fill := dagFill[n.Status]
		if fill == "" {
			fill = "white"
		}
		fmt.Fprintf(&sb, "  n%d [label=\"%s\\n%s\\n[%s]\", fillcolor=\"%s\"];\n", i, head, line2, n.Status, fill)
	}
	for _, e := range d.Edges {
		fmt.Fprintf(&sb, "  n%d -> n%d;\n", e.From, e.To)
	}
	sb.WriteString("}\n")
	return sb.String()
}

// dagBuilder accumulates a DAGReport. Stage nodes are deduplicated by
// artifact key, so two grid points that agree on a stage's config fields
// share one node exactly as they share one store entry.
type dagBuilder struct {
	r     *Runner
	d     *DAGReport
	nodes map[artifactKey]int
}

// addChain adds one (benchmark, input, config) preparation chain — every
// pipeline stage through StagePrepared — reusing nodes already added by
// other chains, and returns the index of the chain's prepared node.
func (b *dagBuilder) addChain(name string, input program.InputClass, cfg Config) (int, error) {
	wfp, err := workloadFingerprint(name)
	if err != nil {
		return 0, err
	}
	plan, err := planFor(cfg, wfp)
	if err != nil {
		return 0, err
	}
	last := 0
	for _, st := range Stages() {
		key := artifactKey{name: name, input: input, stage: st, fp: plan.fps[st]}
		if i, ok := b.nodes[key]; ok {
			last = i
			continue
		}
		status := dagCold
		if _, _, done := b.r.store.peek(key); done {
			status = dagCached // complete, or a cached failure
		} else if b.r.diskHas(key) {
			status = dagSpill
		}
		last = len(b.d.Nodes)
		// Stages() is in dependency order, so every upstream node exists.
		for _, u := range stageDeps[st] {
			up := artifactKey{name: name, input: input, stage: u, fp: plan.fps[u]}
			b.d.Edges = append(b.d.Edges, DAGEdge{From: b.nodes[up], To: last})
		}
		b.nodes[key] = last
		b.d.Nodes = append(b.d.Nodes, DAGNode{Bench: name, Input: input.String(), Stage: string(st), Status: status})
	}
	return last, nil
}

// SweepDAG plans a grid without executing it: the stage DAG behind Sweep's
// fan-out, annotated with store status at planning time. Workload specs in
// the grid are registered exactly as Sweep registers them; the artifact
// store is only peeked, never populated.
func (r *Runner) SweepDAG(g Grid) (*DAGReport, error) {
	jobs, _, axes, err := r.expandGrid(g)
	if err != nil {
		return nil, err
	}
	b := &dagBuilder{r: r, d: &DAGReport{Axes: axes}, nodes: map[artifactKey]int{}}
	for _, j := range jobs {
		prep, err := b.addChain(j.bench, j.pt.cfg.MeasureInput, j.pt.cfg)
		if err != nil {
			return nil, fmt.Errorf("%s@%s: %w", j.bench, j.pt.point(), err)
		}
		b.d.Edges = append(b.d.Edges, DAGEdge{From: prep, To: len(b.d.Nodes)})
		b.d.Nodes = append(b.d.Nodes, DAGNode{Bench: j.bench, Stage: dagMeasure,
			Point: j.pt.point(), Status: dagMeasure})
	}
	return b.d, nil
}
