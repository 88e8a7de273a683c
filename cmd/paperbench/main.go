// Command paperbench regenerates every table and figure of the paper's
// evaluation section (§5) from the built-in workload suite:
//
//	paperbench            # everything
//	paperbench -table 1   # just Table 1
//	paperbench -figure 4  # just Figure 4
//	paperbench -perf      # just the §5.1 performance measurements
//	paperbench -perf-report  # the §5.1 ladder from instrumentation spans
//
// The output is the text EXPERIMENTS.md quotes; the numbers are
// deterministic for the tables/figures (fixed seeds) and hardware-
// dependent for the timing section.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/hb"
	"repro/internal/lockset"
	"repro/internal/machine"
	"repro/internal/replay"
	"repro/internal/report"
	"repro/internal/workloads"

	racereplay "repro"
)

func main() {
	if err := realMain(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "paperbench:", err)
		os.Exit(1)
	}
}

// realMain is the testable entry point.
func realMain(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("paperbench", flag.ContinueOnError)
	fs.SetOutput(out)
	table := fs.Int("table", 0, "render only this table (1 or 2)")
	figure := fs.Int("figure", 0, "render only this figure (3, 4, or 5)")
	perfOnly := fs.Bool("perf", false, "render only the performance section")
	perfReport := fs.Bool("perf-report", false, "render the overhead ladder from an instrumented suite run (spans, not stopwatches)")
	md := fs.Bool("md", false, "emit the tables and figures as GitHub markdown")
	seeds := fs.Int("seeds", 1, "scheduler seeds recorded per scenario (instances scale with coverage)")
	jobs := fs.Int("jobs", 0, "analysis workers (0 = GOMAXPROCS); output is identical at any count")
	benchOut := fs.String("bench-out", "", "measure the offline pipeline with the machine-readable harness and write JSON here (e.g. BENCH_7.json)")
	benchTime := fs.Duration("bench-time", 200*time.Millisecond, "per-benchmark measurement budget for -bench-out (0 = one iteration)")
	benchRounds := fs.Int("bench-rounds", 1, "measurement rounds per benchmark for -bench-out; medians over rounds feed -against")
	checkFile := fs.String("check-bench", "", "validate a -bench-out JSON file against the schema and exit")
	against := fs.String("against", "", "with -check-bench: baseline bench JSON to diff against; regressions past -tolerance fail")
	tolerance := fs.Float64("tolerance", 0.25, "allowed median ns/op slowdown vs -against before failing (0.25 = +25%)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	stdout = out

	if *checkFile != "" {
		return checkBench(*checkFile, *against, *tolerance, out)
	}
	if *benchOut != "" {
		return runBenchOut(*benchOut, *benchTime, *benchRounds, out)
	}

	all := *table == 0 && *figure == 0 && !*perfOnly && !*perfReport && !*md

	if *perfReport {
		// Unlike perf()'s best-of-three stopwatches over one scenario,
		// this ladder aggregates the instrumentation spans of a real
		// suite run — every scenario, every stage, plus a bare-machine
		// native baseline per execution.
		reg := racereplay.NewMetrics()
		if _, err := racereplay.RunSuiteOpts(racereplay.SuiteOptions{
			Seeds: *seeds, Jobs: *jobs, Registry: reg,
		}); err != nil {
			return err
		}
		fmt.Fprint(stdout, report.OverheadLadder(reg.Snapshot()))
		return nil
	}

	var run *workloads.SuiteRun
	needSuite := all || *table != 0 || *figure != 0 || *md
	if needSuite {
		var err error
		run, err = racereplay.RunSuiteOpts(racereplay.SuiteOptions{Seeds: *seeds, Jobs: *jobs})
		if err != nil {
			return err
		}
	}

	if *md {
		fmt.Fprint(stdout, report.Markdown(run.Merged, report.SuiteTruth))
		return nil
	}
	if all {
		fmt.Fprintln(stdout, "# Replay-based data race classification: evaluation")
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, report.Summary(run.Merged, report.SuiteTruth))
		fmt.Fprintln(stdout)
	}
	if all || *table == 1 {
		fmt.Fprint(stdout, report.BuildTable1(run.Merged, report.SuiteTruth).Render())
		fmt.Fprintln(stdout)
	}
	if all || *table == 2 {
		fmt.Fprint(stdout, report.BuildTable2(run.Merged, report.SuiteTruth).Render())
		fmt.Fprintln(stdout)
	}
	if all || *figure == 3 {
		fmt.Fprint(stdout, report.BuildFigure3(run.Merged, report.SuiteTruth).Render())
		fmt.Fprintln(stdout)
	}
	if all || *figure == 4 {
		fmt.Fprint(stdout, report.BuildFigure4(run.Merged, report.SuiteTruth).Render())
		fmt.Fprintln(stdout)
	}
	if all || *figure == 5 {
		fmt.Fprint(stdout, report.BuildFigure5(run.Merged, report.SuiteTruth).Render())
		fmt.Fprintln(stdout)
	}
	if all || *perfOnly {
		perf()
	}
	if all {
		ablation()
	}
	return nil
}

// stdout is the output sink, replaceable in tests.
var stdout io.Writer = os.Stdout

// perf reproduces §5.1: log sizes and the per-stage overhead ladder over
// the browse workload.
func perf() {
	fmt.Fprintln(stdout, "Performance (browse scenario, cf. paper section 5.1)")
	s := workloads.BrowseScenario()
	prog, err := s.Program()
	if err != nil {
		fatal(err)
	}
	cfg := s.Config()

	// Each stage is timed best-of-three to damp scheduler noise.
	tNative, steps := timeNative(prog, cfg)

	var log *racereplay.Log
	tRecord := best(func() {
		var err error
		log, err = racereplay.Record(prog, cfg)
		if err != nil {
			fatal(err)
		}
	})

	tReplay := best(func() {
		if _, err := replay.Run(log, replay.Options{SkipAccesses: true}); err != nil {
			fatal(err)
		}
	})

	var races *racereplay.RaceSet
	tHB := best(func() {
		exec, err := racereplay.Replay(log)
		if err != nil {
			fatal(err)
		}
		races = racereplay.DetectRaces(exec)
	})

	tClassify := best(func() {
		if _, err := racereplay.AnalyzeLog(log, racereplay.Options{}); err != nil {
			fatal(err)
		}
	})

	st := racereplay.LogStats(log)
	fmt.Fprintf(stdout, "  instructions executed:      %d across %d threads\n", steps, len(log.Threads))
	fmt.Fprintf(stdout, "  log size:                   %.2f bits/instr raw, %.2f bits/instr compressed\n",
		st.RawBitsPerInstr(), st.CompressedBitsPerInstr())
	fmt.Fprintf(stdout, "  storage per 10^9 instrs:    %.0f MB compressed (paper: ~96 MB raw)\n", st.BytesPerBillion()/1e6)
	fmt.Fprintf(stdout, "  races in this execution:    %d unique (%d instances)\n", len(races.Races), races.TotalInstances)
	fmt.Fprintf(stdout, "  native execution:           %v\n", tNative)
	fmt.Fprintf(stdout, "  recording:                  %v (%.1fx native; paper ~6x on x86)\n", tRecord, ratio(tRecord, tNative))
	fmt.Fprintf(stdout, "  replay:                     %v (%.1fx native; paper ~10x)\n", tReplay, ratio(tReplay, tNative))
	fmt.Fprintf(stdout, "  happens-before analysis:    %v (%.1fx native; paper ~45x)\n", tHB, ratio(tHB, tNative))
	fmt.Fprintf(stdout, "  replay classification:      %v (%.1fx native; paper ~280x)\n", tClassify, ratio(tClassify, tNative))
	fmt.Fprintln(stdout)
}

func timeNative(prog *racereplay.Program, cfg machine.Config) (time.Duration, uint64) {
	var steps uint64
	d := best(func() {
		m, err := machine.New(prog, cfg)
		if err != nil {
			fatal(err)
		}
		steps = m.Run().TotalSteps
	})
	return d, steps
}

// best runs f three times and returns the fastest wall time.
func best(f func()) time.Duration {
	min := time.Duration(0)
	for i := 0; i < 3; i++ {
		start := time.Now()
		f()
		if d := time.Since(start); min == 0 || d < min {
			min = d
		}
	}
	return min
}

// ablation renders A1 (interval vs vector-clock detector) and A2 (lockset
// baseline false positives) over the first scenario.
func ablation() {
	fmt.Fprintln(stdout, "Ablations (scenario exec01)")
	s := workloads.Scenarios()[0]
	prog, err := s.Program()
	if err != nil {
		fatal(err)
	}
	log, err := racereplay.Record(prog, s.Config())
	if err != nil {
		fatal(err)
	}
	exec, err := racereplay.Replay(log)
	if err != nil {
		fatal(err)
	}
	interval := hb.Detect(exec)
	vc, err := hb.DetectVC(exec, nil)
	if err != nil {
		fatal(err)
	}
	ls := lockset.Detect(exec)
	fmt.Fprintf(stdout, "  A1 region-overlap detector:  %d races (%d instances)\n", len(interval.Races), interval.TotalInstances)
	fmt.Fprintf(stdout, "  A1 vector-clock detector:    %d races (%d instances)\n", len(vc.Races), vc.TotalInstances)
	fmt.Fprintf(stdout, "  A2 lockset (Eraser) baseline: %d warnings over %d shared addresses\n", len(ls.Warnings), ls.Checked)
	fmt.Fprintln(stdout, "  (the lockset baseline also fires on fork/join and user-constructed")
	fmt.Fprintln(stdout, "   synchronization: false positives the happens-before detector avoids)")
}

func ratio(a, b time.Duration) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "paperbench:", err)
	os.Exit(1)
}
