// Command report regenerates the paper's evaluation artifacts: Figure 2,
// Figure 3, Table 3, Figure 4, Figure 5 (all three axes) and the ED² study.
//
// Every artifact is computed once as a structured report, serialized to
// JSON, and — in the default text mode — decoded back from that JSON before
// rendering, so the printed tables provably contain nothing the JSON
// doesn't. One Lab engine serves all figures: each benchmark is prepared
// exactly once no matter how many artifacts are requested.
//
// Usage:
//
//	report                 # everything, rendered (several minutes)
//	report -fig 3          # one figure
//	report -table 3        # the validation table
//	report -json           # machine-readable JSON stream, one object per artifact
//	report -render f.json  # render a saved artifact stream ("-" = stdin)
//	report -dag idle,mem   # Graphviz DOT of the sweep grid's stage DAG
//	report -v              # engine progress on stderr
//
// The -dag mode plans instead of runs: it expands the named sensitivity
// axes over the paper benchmarks into the stage dependency DAG — stage
// nodes deduplicated across grid points, one measurement sink per point,
// each annotated with its cold/cached/spill status — and prints it as
// Graphviz DOT (pipe to `dot -Tsvg` to visualize).
//
// The -render mode closes the round trip: any artifact stream this command
// (or cmd/sweep -json) emitted renders back to the exact tables a live run
// would print, without recomputing anything:
//
//	sweep -axis idle,mem -json | report -render -
//
// Daemon event streams work too: lines carrying a "kind" (progress events,
// including kinds this build doesn't know) are skipped, and the embedded
// artifact line renders as usual:
//
//	curl -sN localhost:8080/v1/jobs/j1/events | report -render -
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"

	preexec "repro"
)

func main() {
	fig := flag.Int("fig", 0, "regenerate one figure (2, 3, 4 or 5); 0 = all")
	table := flag.Int("table", 0, "regenerate one table (3); 0 = all")
	asJSON := flag.Bool("json", false, "emit JSON artifacts instead of rendered tables")
	renderPath := flag.String("render", "", "render a saved JSON artifact stream instead of recomputing (\"-\" = stdin)")
	dagAxes := flag.String("dag", "", "print the stage DAG for a sweep over these axes (comma-separated, e.g. \"idle,mem\") as Graphviz DOT, without running it")
	verbose := flag.Bool("v", false, "log engine progress events to stderr")
	flag.Parse()

	if *renderPath != "" {
		if err := renderStream(*renderPath); err != nil {
			fmt.Fprintln(os.Stderr, "report:", err)
			os.Exit(1)
		}
		return
	}
	if *dagAxes != "" {
		if err := printDAG(*dagAxes); err != nil {
			fmt.Fprintln(os.Stderr, "report:", err)
			os.Exit(1)
		}
		return
	}

	opts := []preexec.Option{}
	if *verbose {
		opts = append(opts, preexec.WithObserver(func(ev preexec.Event) {
			fmt.Fprintf(os.Stderr, "report: %-15s %-10s %-6s %s\n", ev.Kind, ev.Bench, ev.Input, ev.Target)
		}))
	}
	lab := preexec.New(opts...)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	names := preexec.PaperBenchmarks()
	all := *fig == 0 && *table == 0

	if all || *fig == 2 {
		rep, err := lab.Figure2(ctx, names)
		emit("figure2", rep, err, *asJSON, func(raw []byte) (preexec.Report, error) {
			var r preexec.Figure2Report
			return &r, json.Unmarshal(raw, &r)
		})
	}
	if all || *fig == 3 {
		rep, err := lab.Figure3(ctx, names)
		emit("figure3", rep, err, *asJSON, func(raw []byte) (preexec.Report, error) {
			var r preexec.Figure3Report
			return &r, json.Unmarshal(raw, &r)
		})
	}
	if all || *table == 3 {
		rep, err := lab.Table3(ctx, preexec.Table3Benchmarks())
		emit("table3", rep, err, *asJSON, func(raw []byte) (preexec.Report, error) {
			var r preexec.Table3Report
			return &r, json.Unmarshal(raw, &r)
		})
	}
	if all || *fig == 4 {
		rep, err := lab.Figure4(ctx, names)
		emit("figure4", rep, err, *asJSON, func(raw []byte) (preexec.Report, error) {
			var r preexec.Figure4Report
			return &r, json.Unmarshal(raw, &r)
		})
	}
	if all || *fig == 5 {
		for _, axis := range []preexec.SweepAxis{
			preexec.SweepIdleFactor, preexec.SweepMemLatency, preexec.SweepL2Size,
		} {
			rep, err := lab.Figure5(ctx, axis, preexec.Figure5Benchmarks(axis))
			emit("figure5/"+axis.String(), rep, err, *asJSON, func(raw []byte) (preexec.Report, error) {
				var r preexec.Figure5Report
				return &r, json.Unmarshal(raw, &r)
			})
		}
	}
	if all {
		rep, err := lab.ED2Study(ctx, names)
		emit("ed2", rep, err, *asJSON, func(raw []byte) (preexec.Report, error) {
			var r preexec.ED2Report
			return &r, json.Unmarshal(raw, &r)
		})
	}
}

// printDAG plans a sweep grid over the named sensitivity axes for the paper
// benchmarks and prints its stage DAG as DOT.
func printDAG(axes string) error {
	g := preexec.Grid{Benchmarks: preexec.PaperBenchmarks()}
	for _, name := range strings.Split(axes, ",") {
		axis, err := preexec.ParseSweepAxis(strings.TrimSpace(name))
		if err != nil {
			return err
		}
		g.Axes = append(g.Axes, preexec.GridAxis(axis))
	}
	dag, err := preexec.New().SweepDAG(g)
	if err != nil {
		return err
	}
	fmt.Print(dag.DOT())
	return nil
}

// decoderFor maps an artifact name from the stream to its report type.
func decoderFor(name string) func([]byte) (preexec.Report, error) {
	decode := func(r preexec.Report) func([]byte) (preexec.Report, error) {
		return func(raw []byte) (preexec.Report, error) { return r, json.Unmarshal(raw, r) }
	}
	switch {
	case name == "figure2":
		return decode(&preexec.Figure2Report{})
	case name == "figure3":
		return decode(&preexec.Figure3Report{})
	case name == "table3":
		return decode(&preexec.Table3Report{})
	case name == "figure4":
		return decode(&preexec.Figure4Report{})
	case strings.HasPrefix(name, "figure5"):
		return decode(&preexec.Figure5Report{})
	case name == "ed2":
		return decode(&preexec.ED2Report{})
	case name == "sweep":
		return decode(&preexec.SweepReport{})
	case name == "campaign":
		return decode(&preexec.CampaignReport{})
	}
	return nil
}

// renderStream decodes a JSON artifact stream (one {"artifact","report"}
// object per line, as emitted by -json or by cmd/sweep -json) and renders
// each artifact. Progress-event lines — objects carrying a "kind" and no
// "artifact", as in a daemon job's NDJSON event stream — are skipped
// without inspection of the kind, so streams from newer daemons with event
// kinds this build has never heard of still render.
func renderStream(path string) error {
	var in io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<20), 64<<20) // reports can be large
	n := 0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var env struct {
			Artifact string          `json:"artifact"`
			Report   json.RawMessage `json:"report"`
			Kind     string          `json:"kind"`
		}
		if err := json.Unmarshal([]byte(line), &env); err != nil {
			return fmt.Errorf("artifact stream line %d: %w", n+1, err)
		}
		if env.Artifact == "" && env.Kind != "" {
			continue // progress event from a job stream; any kind, even unknown
		}
		decode := decoderFor(env.Artifact)
		if decode == nil {
			return fmt.Errorf("artifact stream line %d: unknown artifact %q", n+1, env.Artifact)
		}
		rep, err := decode(env.Report)
		if err != nil {
			return fmt.Errorf("artifact %q: %w", env.Artifact, err)
		}
		fmt.Println(rep.Render())
		n++
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if n == 0 {
		return fmt.Errorf("no artifacts in %s", path)
	}
	return nil
}

// emit serializes one artifact to JSON. In JSON mode the artifact streams
// out as {"artifact": name, "report": ...}; in text mode the JSON is
// decoded back into a fresh report and rendered from the decoded copy.
func emit(name string, rep preexec.Report, err error, asJSON bool, decode func([]byte) (preexec.Report, error)) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "report:", err)
		os.Exit(1)
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "report: marshal:", err)
		os.Exit(1)
	}
	if asJSON {
		out, err := json.Marshal(struct {
			Artifact string          `json:"artifact"`
			Report   json.RawMessage `json:"report"`
		}{name, raw})
		if err != nil {
			fmt.Fprintln(os.Stderr, "report: marshal:", err)
			os.Exit(1)
		}
		fmt.Println(string(out))
		return
	}
	decoded, err := decode(raw)
	if err != nil {
		fmt.Fprintln(os.Stderr, "report: decode:", err)
		os.Exit(1)
	}
	fmt.Println(decoded.Render())
}
