// Command sweep runs sensitivity sweeps over any benchmark set: one of the
// paper's Figure 5 axes, or a declarative multi-axis cartesian grid.
//
// Usage:
//
//	sweep -axis idle                        # paper's idle-factor triple
//	sweep -axis mem -bench mcf,twolf        # custom benchmark set
//	sweep -axis idle,mem -bench vortex      # 3×3 cartesian grid
//	sweep -axis l2 -all                     # all nine benchmarks
//	sweep -axis mem -targets L,P2           # custom target set
//	sweep -axis mem -engine scan            # reference scan engine
//	sweep -axis mem -json                   # machine-readable artifact
//	                                        # (render with: report -render -)
//
// Local sweeps fan out bench-major on the bounded worker pool (-j). To
// inspect the grid's planned stage DAG without running it, see
// `report -dag`.
//
// Generated workloads join the sweep through the repeatable -gen flag,
// taking the generator spec grammar family:seed[:knob=value,...]. With -gen
// alone the grid sweeps only the generated workloads; adding -bench or -all
// mixes built-ins in:
//
//	sweep -axis idle -gen pointer-chase:7 -gen hash-probe:2:loads=2
//	sweep -axis mem -all -gen tree-walk:9:ws=524288
//
// Benchmark names are validated by the Lab engine itself: unknown or
// duplicated names fail fast with the valid set listed.
//
// With -addr the same sweep runs on a lab daemon (cmd/labd) instead of
// in-process: the grid is submitted over HTTP, per-point progress streams
// back live and prints identically to a local run, and the daemon's
// persistent artifact store makes repeated and concurrent submissions share
// every preparation stage — across clients and across daemon restarts.
// Every locally checkable flag (-axis, -targets, -gen, -engine) is
// validated client-side before anything is submitted; -engine configures
// local runs only (a daemon's own -engine governs its jobs):
//
//	sweep -addr http://localhost:8080 -axis idle -bench gap
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	preexec "repro"
)

// cli is the parsed, validated flag set of one sweep invocation.
type cli struct {
	axes        []preexec.Axis
	axisNames   []string
	names       []string
	workloads   []preexec.WorkloadPoint
	genSpecs    []string
	targets     []preexec.Target
	targetNames []string
	engine      preexec.Engine
	parallelism int
	asJSON      bool
	addr        string
}

// parseCLI parses and validates the full flag set. Everything locally
// checkable — -axis, -targets, every -gen spec and -engine — is validated
// here, before main chooses between the local and remote paths, so a bad
// flag is rejected client-side instead of being submitted to a daemon.
func parseCLI(args []string) (*cli, error) {
	c := &cli{}
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	axisNames := fs.String("axis", "idle", "comma-separated sweep axes: idle, mem, l2 (multiple = cartesian grid)")
	bench := fs.String("bench", "", "comma-separated benchmarks (default: the paper's triple for the first axis)")
	all := fs.Bool("all", false, "sweep every benchmark")
	targetNames := fs.String("targets", "", "comma-separated selection targets (default: L,E,P)")
	engineName := fs.String("engine", "", "simulation engine: event or scan (local sweeps; a daemon uses its own -engine)")
	fs.IntVar(&c.parallelism, "j", 0, "worker-pool bound (0 = GOMAXPROCS)")
	fs.BoolVar(&c.asJSON, "json", false, "emit the JSON artifact instead of the rendered table")
	fs.StringVar(&c.addr, "addr", "", "submit to a lab daemon at this base URL instead of sweeping locally")
	fs.Func("gen", "generated workload spec family:seed[:knob=value,...] (repeatable)", func(text string) error {
		spec, err := preexec.ParseWorkloadSpec(text)
		if err != nil {
			return err
		}
		c.workloads = append(c.workloads, preexec.WorkloadPoint{Label: text, Spec: spec})
		c.genSpecs = append(c.genSpecs, text)
		return nil
	})
	if err := fs.Parse(args); err != nil {
		return nil, err
	}

	var first preexec.SweepAxis
	for i, name := range strings.Split(*axisNames, ",") {
		name = strings.TrimSpace(name)
		axis, err := preexec.ParseSweepAxis(name)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			first = axis
		}
		c.axes = append(c.axes, preexec.GridAxis(axis))
		c.axisNames = append(c.axisNames, name)
	}

	c.names = preexec.Figure5Benchmarks(first)
	if *all {
		c.names = preexec.PaperBenchmarks()
	} else if *bench != "" {
		c.names = strings.Split(*bench, ",")
	} else if len(c.workloads) > 0 {
		c.names = nil // -gen alone sweeps only the generated workloads
	}

	if *targetNames != "" {
		for _, t := range strings.Split(*targetNames, ",") {
			t = strings.TrimSpace(t)
			tgt, err := preexec.ParseTarget(t)
			if err != nil {
				return nil, err
			}
			c.targets = append(c.targets, tgt)
			c.targetNames = append(c.targetNames, t)
		}
	}

	var err error
	if c.engine, err = preexec.ParseEngine(*engineName); err != nil {
		return nil, err
	}
	return c, nil
}

func main() {
	c, err := parseCLI(os.Args[1:])
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if c.addr != "" {
		if err := runRemote(ctx, c.addr, c.axisNames, c.names, c.genSpecs, c.targetNames, c.asJSON); err != nil {
			fmt.Fprintln(os.Stderr, "sweep:", err)
			os.Exit(1)
		}
		return
	}

	cfg := preexec.DefaultConfig()
	cfg.CPU.Engine = c.engine
	lab := preexec.New(
		preexec.WithConfig(cfg),
		preexec.WithParallelism(c.parallelism),
		preexec.WithObserver(func(ev preexec.Event) {
			switch ev.Kind {
			case preexec.EventStageStart:
				fmt.Fprintf(os.Stderr, "sweep: building %s/%s %s\n", ev.Bench, ev.Input, ev.Stage)
			case preexec.EventPointDone:
				fmt.Fprintf(os.Stderr, "sweep: point %d/%d %s@%s\n", ev.Done, ev.Total, ev.Bench, ev.Point)
			}
		}),
	)

	rep, err := lab.Sweep(ctx, preexec.Grid{Axes: c.axes, Benchmarks: c.names, Workloads: c.workloads, Targets: c.targets})
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
	if c.asJSON {
		raw, err := json.Marshal(rep)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sweep:", err)
			os.Exit(1)
		}
		out, err := json.Marshal(struct {
			Artifact string          `json:"artifact"`
			Report   json.RawMessage `json:"report"`
		}{"sweep", raw})
		if err != nil {
			fmt.Fprintln(os.Stderr, "sweep:", err)
			os.Exit(1)
		}
		fmt.Println(string(out))
		return
	}
	fmt.Println(rep.Render())
}
