// Command racer is the CLI front end for the replay-based race
// classification pipeline:
//
//	racer run <prog.rasm>            run a program natively
//	racer record <prog.rasm> -o L    record an execution into a replay log
//	racer replay <L>                 replay a log and show per-thread output
//	racer detect <L>                 find data races (happens-before)
//	racer classify <L>               classify races by dual-order replay
//	racer scenario -name exec01      analyze a built-in workload scenario
//	racer suite                      analyze all 18 scenarios and summarize
//	racer predict <prog.rasm>        predict feasible races beyond the recording
//	racer mark-benign -db F -race R  record a developer triage verdict
//	racer disasm <prog.rasm>         disassemble a program
//	racer scenarios                  list the built-in workload scenarios
//
// Every subcommand takes -seed to pick the scheduler interleaving; equal
// seeds reproduce identical executions.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/chaos"
	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/debug"
	"repro/internal/hb"
	"repro/internal/machine"
	"repro/internal/replay"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/workloads"

	racereplay "repro"
)

// stdout is the command output sink, replaceable in tests.
var stdout io.Writer = os.Stdout

// exitCode is the status for a command that completed without a hard
// error. The contract (see usage): 0 clean, 1 the analysis reported
// potentially harmful races, 2 corrupt or invalid input (a failed
// validation, or quarantined files in a batch). Hard errors — bad
// flags, unreadable inputs, internal failures — always exit 2.
var exitCode int

// raiseExit widens the exit status; codes only escalate, so invalid
// input (2) wins over findings (1) wins over clean (0).
func raiseExit(code int) {
	if code > exitCode {
		exitCode = code
	}
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "run":
		err = cmdRun(args)
	case "record":
		err = cmdRecord(args)
	case "replay":
		err = cmdReplay(args)
	case "detect":
		err = cmdDetect(args)
	case "classify":
		err = cmdClassify(args)
	case "scenario":
		err = cmdScenario(args)
	case "suite":
		err = cmdSuite(args)
	case "predict":
		err = cmdPredict(args)
	case "lint":
		err = cmdLint(args)
	case "record-suite":
		err = cmdRecordSuite(args)
	case "analyze-dir":
		err = cmdAnalyzeDir(args)
	case "validate":
		err = cmdValidate(args)
	case "audit":
		err = cmdAudit(args)
	case "chaos":
		err = cmdChaos(args)
	case "profile":
		err = cmdProfile(args)
	case "serve":
		err = cmdServe(args)
	case "mark-benign":
		err = cmdMarkBenign(args)
	case "debug":
		err = cmdDebug(args)
	case "disasm":
		err = cmdDisasm(args)
	case "scenarios":
		err = cmdScenarios(args)
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "racer: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "racer:", err)
		os.Exit(2)
	}
	os.Exit(exitCode)
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: racer <command> [flags]

commands (flags come before the file argument):
  run [-seed N] [-policy P] <prog.rasm>     execute a program on the RVM
  record [-seed N] [-o LOG] [-format v1|v2] [-keyframes N] [-online [-stop-on-race]] <prog.rasm>
                                            record an execution into a replay log;
                                            -format picks the container (v2, the
                                            default, is the segmented index-first
                                            layout with parallel decode; readers
                                            sniff either), -online adds an
                                            in-recording race verdict,
                                            -stop-on-race ends the run at the
                                            first confirmed race
  replay <LOG>                              deterministically replay a log
  detect [-detector hb|vc|lockset] <LOG>    find data races in a replayed log
  classify [-db FILE] [-race "A <-> B"] <LOG>
                                            classify races by dual-order replay
  scenario -name NAME [-db FILE] [-online]
                                        analyze one built-in workload scenario
  suite [-db FILE] [-seeds N] [-jobs N] [-static] [-predict] [-online [-stop-on-race]]
                                        analyze all 18 built-in scenarios;
                                        -static adds the ahead-of-execution
                                        cross-validation section; -predict
                                        adds the prediction stage (feasible
                                        reorderings classified by replay);
                                        -online detects races during recording
                                        and skips the offline pass for
                                        race-free runs (the report is
                                        byte-identical)
  predict [-seed N] [-window W] [-db FILE] <prog.rasm|LOG> | predict -scenario NAME
                                        predict feasible races beyond the
                                        recorded interleaving (lockset +
                                        weak-HB + windowed ordering solver)
                                        and classify them by dual-order
                                        replay; predicted harmful races
                                        exit 1
  lint <prog.rasm...> | lint -scenario NAME
                                        static race analysis (no execution):
                                        CFG + constant propagation + must-hold
                                        locksets; any candidate exits 1, any
                                        invalid program exits 2
  record-suite -dir DIR [-seeds N] [-jobs N] [-format v1|v2] [-online]
                                        record every scenario's log to DIR;
                                        -format picks the container format,
                                        -online writes manifest.json with
                                        each log's online race verdict so
                                        analyze-dir can fast-path race-free
                                        logs in a later process
  analyze-dir -dir DIR [-db FILE] [-jobs N] [-static] [-predict]
                                        offline analysis over recorded logs;
                                        honors DIR/manifest.json verdicts
                                        (matched by name + content hash)
  validate <LOG...>                     decode + check logs without analyzing
  audit <FILE.json>                     render a verdict-provenance trail
                                        written by suite/analyze-dir -audit-out
  chaos [-corruptions N] [-seed S] [-log FILE] [-serve URL]
                                        fuzz the decoder with N corrupted log
                                        variants; fails on any panic or
                                        unbounded allocation. With -serve,
                                        fire the sweep (plus truncated and
                                        slow-loris uploads) at a running
                                        'racer serve' endpoint instead and
                                        fail on any 5xx, handler panic, or
                                        dead service

-jobs bounds the analysis worker pool (0 = GOMAXPROCS); results are
byte-identical at every worker count.

exit codes: 0 clean; 1 the analysis reported potentially harmful races;
2 corrupt or invalid input (failed validation, quarantined log files) or
any hard error. Corrupt logs in a batch are quarantined — listed in the
report's quarantine section — and the analysis completes over the rest.
  profile [-addr A] [-iterations N]     run the suite under a live metrics +
                                        pprof HTTP server
  serve [-addr A] [-data DIR] [-jobs N] [-queue N] [-deadline D]
                                        long-running analysis daemon: upload
                                        .rlog files over HTTP, get verdict
                                        reports back; crash-safe journal +
                                        persistent replay memo in -data
                                        (see docs/SERVICE.md)
  mark-benign -db FILE -race "A <-> B"  record a developer benign verdict

most commands also take -metrics[=text|json|prom] and -metrics-out FILE to
emit pipeline observability data (stage spans, counters, histograms).
  debug <LOG>                           time-travel debugger over a replay log
  disasm <prog.rasm>                    disassemble an assembled program
  scenarios                             list built-in workload scenarios
`)
}

// parsePolicy maps a CLI policy name to a machine scheduler policy.
func parsePolicy(name string) (machine.SchedPolicy, error) {
	switch name {
	case "random", "":
		return machine.PolicyRandom, nil
	case "rr", "round-robin":
		return machine.PolicyRoundRobin, nil
	case "pct":
		return machine.PolicyPCT, nil
	}
	return 0, fmt.Errorf("unknown policy %q (want random, rr, or pct)", name)
}

func loadProgram(path string) (*racereplay.Program, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	name := strings.TrimSuffix(path[strings.LastIndexByte(path, '/')+1:], ".rasm")
	return racereplay.Assemble(name, string(src))
}

func loadLog(path string) (*racereplay.Log, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return racereplay.ReadLog(f)
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "scheduler seed")
	policy := fs.String("policy", "random", "scheduler policy: random, rr, pct")
	metrics := addMetricsFlags(fs)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("run wants one program file")
	}
	prog, err := loadProgram(fs.Arg(0))
	if err != nil {
		return err
	}
	pol, err := parsePolicy(*policy)
	if err != nil {
		return err
	}
	reg, err := metrics.registry()
	if err != nil {
		return err
	}
	log, err := racereplay.RecordInstrumented(prog, racereplay.Config{Seed: *seed, Policy: pol}, reg)
	if err != nil {
		return err
	}
	printThreads(log)
	return metrics.emit(reg)
}

func printThreads(log *racereplay.Log) {
	for _, t := range log.Threads {
		fmt.Fprintf(stdout, "thread %d: %v after %d instructions", t.TID, t.EndReason, t.Retired)
		if t.Fault != nil {
			fmt.Fprintf(stdout, " (fault kind %d at pc %d addr 0x%x)", t.Fault.Kind, t.Fault.PC, t.Fault.Addr)
		}
		fmt.Fprintln(stdout)
	}
}

func cmdRecord(args []string) error {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "scheduler seed")
	out := fs.String("o", "out.rlog", "log output path")
	policy := fs.String("policy", "random", "scheduler policy: random, rr, pct")
	keyframes := fs.Uint64("keyframes", 0, "emit a key frame every N instructions (0 = off)")
	online := fs.Bool("online", false, "detect races during recording and print the verdict")
	stopOnRace := fs.Bool("stop-on-race", false, "with -online, stop recording at the first confirmed race")
	format := fs.String("format", "v2", "log container format: v1 (whole-log flate) or v2 (segmented, index-first)")
	metrics := addMetricsFlags(fs)
	fs.Parse(args)
	if *stopOnRace && !*online {
		return fmt.Errorf("-stop-on-race requires -online")
	}
	lf, err := racereplay.ParseLogFormat(*format)
	if err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("record wants one program file")
	}
	prog, err := loadProgram(fs.Arg(0))
	if err != nil {
		return err
	}
	pol, err := parsePolicy(*policy)
	if err != nil {
		return err
	}
	cfg := racereplay.Config{Seed: *seed, Policy: pol}
	reg, err := metrics.registry()
	if err != nil {
		return err
	}
	log, onlineRep, err := racereplay.RecordOnlineInstrumented(prog, cfg, racereplay.OnlineConfig{
		Detect: *online, StopOnFirstRace: *stopOnRace, KeyFrameInterval: *keyframes,
	}, reg)
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := racereplay.WriteLogFormat(f, log, lf); err != nil {
		return err
	}
	s := racereplay.LogStatsFormat(log, lf)
	fmt.Fprintf(stdout, "recorded %d instructions across %d threads\n", s.Instructions, len(log.Threads))
	fmt.Fprintf(stdout, "log: %d bytes raw (%.2f bits/instr), %d bytes compressed (%.2f bits/instr) -> %s\n",
		s.RawBytes, s.RawBitsPerInstr(), s.CompressedBytes, s.CompressedBitsPerInstr(), *out)
	if onlineRep != nil {
		switch {
		case onlineRep.RaceFree:
			fmt.Fprintln(stdout, "online: race-free (offline analysis of this process's log would be skipped)")
		case onlineRep.Stopped:
			fmt.Fprintf(stdout, "online: raced (%d site pairs), recording stopped at first race\n", len(onlineRep.Races))
		default:
			fmt.Fprintf(stdout, "online: raced (%d site pairs)\n", len(onlineRep.Races))
		}
	}
	return metrics.emit(reg)
}

func cmdReplay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	metrics := addMetricsFlags(fs)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("replay wants one log file")
	}
	log, err := loadLog(fs.Arg(0))
	if err != nil {
		return err
	}
	reg, err := metrics.registry()
	if err != nil {
		return err
	}
	exec, err := replayLog(log, reg)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "replayed %d instructions, %d threads, %d sequencing regions\n",
		log.Instructions(), len(exec.Threads), len(exec.Regions))
	for _, t := range exec.Threads {
		fmt.Fprintf(stdout, "thread %d: %v, %d regions", t.TID, t.EndReason, len(t.Regions))
		if len(t.Output) > 0 {
			fmt.Fprintf(stdout, ", output %v", t.Output)
		}
		fmt.Fprintln(stdout)
	}
	return metrics.emit(reg)
}

func cmdDetect(args []string) error {
	fs := flag.NewFlagSet("detect", flag.ExitOnError)
	detector := fs.String("detector", "hb", "hb (paper), vc (vector clock), or lockset (Eraser baseline)")
	triage := fs.Bool("triage", false, "with -detector lockset: replay-triage the warnings")
	metrics := addMetricsFlags(fs)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("detect wants one log file")
	}
	log, err := loadLog(fs.Arg(0))
	if err != nil {
		return err
	}
	reg, err := metrics.registry()
	if err != nil {
		return err
	}
	exec, err := replayLog(log, reg)
	if err != nil {
		return err
	}
	switch *detector {
	case "hb":
		sp := reg.StartSpan("detect")
		rep := hb.DetectIndex(hb.NewIndex(exec), reg)
		sp.End()
		printRaces(rep)
	case "vc":
		rep, err := racereplay.DetectRacesVC(exec)
		if err != nil {
			return err
		}
		printRaces(rep)
	case "lockset":
		rep := racereplay.DetectRacesLockset(exec)
		fmt.Fprintf(stdout, "%d lockset warnings (%d shared addresses checked)\n", len(rep.Warnings), rep.Checked)
		for _, w := range rep.Warnings {
			fmt.Fprintf(stdout, "  addr 0x%x: %s (earlier access %s)\n", w.Addr, w.Site, w.OtherSite)
		}
		if *triage {
			fmt.Fprintln(stdout, "replay triage of the lockset report (paper section 2.2.2):")
			for _, tr := range racereplay.TriageLockset(exec, rep, racereplay.Options{}) {
				fmt.Fprintf(stdout, "  addr 0x%x: %v (ordered pairs %d; racy instances %d: %d nsc, %d sc, %d rf)\n",
					tr.Warning.Addr, tr.Verdict, tr.OrderedPairs, tr.RacyInstances, tr.NSC, tr.SC, tr.RF)
			}
		}
	default:
		return fmt.Errorf("unknown detector %q", *detector)
	}
	return metrics.emit(reg)
}

// replayLog replays log under the "replay" span, publishing the replay.*
// counters into reg (nil is off).
func replayLog(log *racereplay.Log, reg *racereplay.Metrics) (*racereplay.Execution, error) {
	sp := reg.StartSpan("replay")
	defer sp.End()
	return replay.Run(log, replay.Options{Metrics: reg})
}

func printRaces(rep *hb.Report) {
	fmt.Fprintf(stdout, "%d unique data races (%d dynamic instances)\n", len(rep.Races), rep.TotalInstances)
	for _, r := range rep.Races {
		fmt.Fprintf(stdout, "  %s  (%d instances)\n", r.Sites, len(r.Instances))
	}
}

func cmdClassify(args []string) error {
	fs := flag.NewFlagSet("classify", flag.ExitOnError)
	dbPath := fs.String("db", "", "race database for suppression")
	raceFilter := fs.String("race", "", "only report the race with this site pair")
	metrics := addMetricsFlags(fs)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("classify wants one log file")
	}
	log, err := loadLog(fs.Arg(0))
	if err != nil {
		return err
	}
	db, err := openDB(*dbPath)
	if err != nil {
		return err
	}
	reg, err := metrics.registry()
	if err != nil {
		return err
	}
	res, err := racereplay.AnalyzeLog(log,
		racereplay.Options{DB: db, Scenario: log.Prog.Name, Seed: log.Seed, Metrics: reg})
	if err != nil {
		return err
	}
	printClassification(res.Classification, *raceFilter)
	return metrics.emit(reg)
}

func cmdScenario(args []string) error {
	fs := flag.NewFlagSet("scenario", flag.ExitOnError)
	name := fs.String("name", "exec01", "built-in scenario name (or 'browse', 'service')")
	seed := fs.Int64("seed", 0, "override the scenario's scheduler seed")
	dbPath := fs.String("db", "", "race database for suppression")
	raceFilter := fs.String("race", "", "only report the race with this site pair")
	dump := fs.Bool("dump", false, "print the scenario's generated assembly and exit")
	online := fs.Bool("online", false, "detect races during recording; a race-free run skips the offline pass (report is byte-identical either way)")
	metrics := addMetricsFlags(fs)
	fs.Parse(args)
	s, err := workloads.FindScenario(*name)
	if err != nil {
		return err
	}
	if *seed != 0 {
		s.Seed = *seed
	}
	if *dump {
		fmt.Fprint(stdout, s.Source())
		return nil
	}
	prog, err := s.Program()
	if err != nil {
		return err
	}
	db, err := openDB(*dbPath)
	if err != nil {
		return err
	}
	reg, err := metrics.registry()
	if err != nil {
		return err
	}
	res, err := core.Analyze(prog, s.Config(), racereplay.OnlineConfig{Detect: *online},
		racereplay.Options{Scenario: s.Name, Seed: s.Seed, DB: db, Metrics: reg})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "scenario %s (seed %d): %d instructions, %d threads\n",
		s.Name, s.Seed, res.Log.Instructions(), len(res.Log.Threads))
	printClassification(res.Classification, *raceFilter)
	return metrics.emit(reg)
}

func cmdSuite(args []string) error {
	fs := flag.NewFlagSet("suite", flag.ExitOnError)
	dbPath := fs.String("db", "", "race database for suppression")
	verbose := fs.Bool("v", false, "print a report for every race")
	seeds := fs.Int("seeds", 1, "scheduler seeds recorded per scenario")
	jobs := fs.Int("jobs", 0, "analysis workers (0 = GOMAXPROCS); output is identical at any count")
	staticStage := fs.Bool("static", false, "cross-validate static lint candidates against the dynamic results")
	predictStage := fs.Bool("predict", false, "add the prediction stage: feasible reorderings of each recorded schedule, classified by replay")
	benchOut := fs.String("bench-out", "", "also write a machine-readable timing sample of this run as bench JSON (stdout is unchanged)")
	auditOut := fs.String("audit-out", "", "write the verdict-provenance trail (racereplay-audit/v1 JSON) to this file")
	online := fs.Bool("online", false, "detect races during recording; race-free runs skip the offline pass (report is byte-identical either way)")
	stopOnRace := fs.Bool("stop-on-race", false, "with -online, end each recording at its first confirmed race")
	metrics := addMetricsFlags(fs)
	fs.Parse(args)
	if *stopOnRace && !*online {
		return fmt.Errorf("-stop-on-race requires -online")
	}
	db, err := openDB(*dbPath)
	if err != nil {
		return err
	}
	reg, err := metrics.registry()
	if err != nil {
		return err
	}
	if *benchOut != "" && reg == nil {
		// The bench sample reads the memo counters; a private registry
		// keeps -bench-out independent of the -metrics flags without
		// changing what reaches stdout.
		reg = racereplay.NewMetrics()
	}
	var memBefore runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&memBefore)
	start := time.Now()
	run, err := racereplay.RunSuiteOpts(racereplay.SuiteOptions{
		DB: db, Seeds: *seeds, Jobs: *jobs, Registry: reg, Static: *staticStage,
		Audit: *auditOut != "", Online: *online, StopOnRace: *stopOnRace,
		Predict: *predictStage,
	})
	if err != nil {
		return err
	}
	if *auditOut != "" {
		if err := run.Audit.WriteFile(*auditOut); err != nil {
			return err
		}
	}
	if *benchOut != "" {
		if err := writeSuiteBench(*benchOut, *seeds, *jobs, time.Since(start), memBefore, reg); err != nil {
			return err
		}
	}
	sp := reg.StartSpan("report")
	fmt.Fprint(stdout, report.BatchReport{
		Run: run, Predict: *predictStage, Static: *staticStage, Verbose: *verbose,
	}.Render())
	raiseBatchExit(run)
	sp.End()
	return metrics.emit(reg)
}

// writeSuiteBench records one suite run as a single-sample bench JSON
// file: wall time, allocation deltas, and the replay cache's hit rate.
// It writes only to path — suite stdout is byte-identical with and
// without -bench-out, so the serial/parallel divergence diff can carry
// the flag.
func writeSuiteBench(path string, seeds, jobs int, elapsed time.Duration, before runtime.MemStats, reg *racereplay.Metrics) error {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	snap := reg.Snapshot()
	hits, misses := snap.Counters["classify.memo.hits"], snap.Counters["classify.memo.misses"]
	hitrate := 0.0
	if hits+misses > 0 {
		hitrate = float64(hits) / float64(hits+misses)
	}
	file := bench.NewFile()
	file.Benchmarks = append(file.Benchmarks, bench.Result{
		Name:        fmt.Sprintf("suite/seeds=%d/jobs=%d", seeds, jobs),
		N:           1,
		NsPerOp:     float64(elapsed.Nanoseconds()),
		BytesPerOp:  after.TotalAlloc - before.TotalAlloc,
		AllocsPerOp: after.Mallocs - before.Mallocs,
		Metrics:     map[string]float64{"hitrate": hitrate},
	})
	return file.WriteFile(path)
}

// cmdPredict runs the prediction stage over one execution: record (or
// load) it, propose feasible reorderings of the schedule that would
// race (lockset + weak-HB prefilter, access blocks, windowed ordering
// solver), and classify every predicted-new pair by the same dual-order
// replay as observed races. The argument is a program file or a
// recorded .rlog; -scenario substitutes a built-in workload. Exit
// status: 1 when any race — observed or predicted — classifies
// potentially harmful.
func cmdPredict(args []string) error {
	fs := flag.NewFlagSet("predict", flag.ExitOnError)
	name := fs.String("scenario", "", "predict over a built-in workload scenario instead of a file")
	seed := fs.Int64("seed", 1, "scheduler seed (programs; scenarios keep their own unless set)")
	window := fs.Int("window", 0, "solver window in regions (0 = default)")
	dbPath := fs.String("db", "", "race database for suppression")
	metrics := addMetricsFlags(fs)
	fs.Parse(args)
	db, err := openDB(*dbPath)
	if err != nil {
		return err
	}
	reg, err := metrics.registry()
	if err != nil {
		return err
	}
	opts := racereplay.Options{DB: db, Predict: true, PredictWindow: *window, Metrics: reg}
	var res *racereplay.Result
	switch {
	case *name != "":
		if fs.NArg() != 0 {
			return fmt.Errorf("predict wants a file or -scenario NAME, not both")
		}
		s, err := workloads.FindScenario(*name)
		if err != nil {
			return err
		}
		prog, err := s.Program()
		if err != nil {
			return err
		}
		opts.Scenario, opts.Seed = s.Name, s.Seed
		res, err = racereplay.Analyze(prog, s.Config(), opts)
		if err != nil {
			return err
		}
	case fs.NArg() == 1 && strings.HasSuffix(fs.Arg(0), ".rlog"):
		log, err := loadLog(fs.Arg(0))
		if err != nil {
			return err
		}
		opts.Scenario, opts.Seed = filepath.Base(fs.Arg(0)), log.Seed
		res, err = racereplay.AnalyzeLog(log, opts)
		if err != nil {
			return err
		}
	case fs.NArg() == 1:
		prog, err := loadProgram(fs.Arg(0))
		if err != nil {
			return err
		}
		opts.Scenario, opts.Seed = prog.Name, *seed
		res, err = racereplay.Analyze(prog, racereplay.Config{Seed: *seed}, opts)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("predict wants one program or log file, or -scenario NAME")
	}
	benign, harmful := res.Classification.CountByVerdict()
	fmt.Fprintf(stdout, "observed: %d races (%d potentially benign, %d potentially harmful)\n",
		len(res.Classification.Races), benign, harmful)
	fmt.Fprint(stdout, racereplay.PredictedReport(res.Predicted))
	if harmful > 0 {
		raiseExit(1)
	}
	if res.Predicted != nil && res.Predicted.Classification != nil {
		if _, ph := res.Predicted.Classification.CountByVerdict(); ph > 0 {
			raiseExit(1)
		}
	}
	return metrics.emit(reg)
}

// cmdLint is the static half of the pipeline: analyze programs ahead of
// any execution and report race candidates. Exit status follows the
// documented contract — 1 when candidates are found, 2 on invalid input,
// 0 when clean. Invalid input covers both files that fail to load or
// assemble and programs the machine itself would refuse to run (an
// empty program lints vacuously clean but can never execute, so
// reporting it as clean would be a lie). A bad file in a batch is
// reported and the remaining files still lint — the exit code only
// escalates, so findings elsewhere in the batch stay visible.
func cmdLint(args []string) error {
	fs := flag.NewFlagSet("lint", flag.ExitOnError)
	scenario := fs.String("scenario", "", "lint a built-in workload scenario instead of a file")
	metrics := addMetricsFlags(fs)
	fs.Parse(args)
	reg, err := metrics.registry()
	if err != nil {
		return err
	}
	type item struct {
		label string
		prog  *racereplay.Program
		err   error
	}
	var items []item
	if *scenario != "" {
		it := item{label: "scenario " + *scenario}
		s, err := workloads.FindScenario(*scenario)
		if err == nil {
			it.prog, it.err = s.Program()
		} else {
			it.err = err
		}
		items = append(items, it)
	}
	for _, path := range fs.Args() {
		prog, err := loadProgram(path)
		items = append(items, item{label: path, prog: prog, err: err})
	}
	if len(items) == 0 {
		return fmt.Errorf("lint wants program files or -scenario NAME")
	}
	candidates := 0
	for i, it := range items {
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		if it.err == nil {
			// Mirror machine.New's admission checks: a program the
			// machine would reject is invalid input, not a clean lint.
			if verr := it.prog.Validate(); verr != nil {
				it.err = verr
			} else if len(it.prog.Code) == 0 {
				it.err = fmt.Errorf("empty program %s", it.prog.Name)
			}
		}
		if it.err != nil {
			fmt.Fprintf(stdout, "%s: invalid input: %v\n", it.label, it.err)
			raiseExit(2)
			continue
		}
		rep := racereplay.AnalyzeStaticInstrumented(it.prog, reg)
		rep.Format(stdout)
		candidates += len(rep.Candidates)
	}
	if candidates > 0 {
		raiseExit(1)
	}
	return metrics.emit(reg)
}

// raiseBatchExit applies the exit-code contract to a batch report:
// 2 when any input was quarantined (the analysis completed, but over
// degraded input) or nothing was analyzed (never "clean" on the
// strength of an empty report), 1 when any verdict, observed or
// predicted, is potentially harmful.
func raiseBatchExit(run *workloads.SuiteRun) {
	if len(run.Quarantined) > 0 || len(run.Scenarios) == 0 {
		raiseExit(2)
	}
	if run.Harmful() {
		raiseExit(1)
	}
}

func printClassification(c *racereplay.Classification, filter string) {
	benign, harmful := c.CountByVerdict()
	if harmful > 0 {
		raiseExit(1)
	}
	fmt.Fprintf(stdout, "%d races: %d potentially benign, %d potentially harmful (%d instances analyzed)\n",
		len(c.Races), benign, harmful, c.TotalInstances())
	for _, r := range c.Races {
		if filter != "" && r.Sites.String() != filter {
			continue
		}
		fmt.Fprint(stdout, report.RaceReport(r, report.SuiteTruth))
	}
}

func openDB(path string) (*classify.DB, error) {
	if path == "" {
		return nil, nil
	}
	return racereplay.LoadDB(path)
}

// cmdRecordSuite implements the online half of the paper's usage model:
// gather replay logs for every test scenario once, cheaply.
func cmdRecordSuite(args []string) error {
	fs := flag.NewFlagSet("record-suite", flag.ExitOnError)
	dir := fs.String("dir", "logs", "output directory")
	seeds := fs.Int("seeds", 1, "scheduler seeds recorded per scenario")
	jobs := fs.Int("jobs", 0, "recording workers (0 = GOMAXPROCS); output is identical at any count")
	online := fs.Bool("online", false, "attach the online race detector and write manifest.json with each log's verdict")
	format := fs.String("format", "v2", "log container format: v1 (whole-log flate) or v2 (segmented, index-first)")
	metrics := addMetricsFlags(fs)
	fs.Parse(args)
	lf, err := racereplay.ParseLogFormat(*format)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}
	reg, err := metrics.registry()
	if err != nil {
		return err
	}

	// Every (scenario, seed) recording is an independent deterministic
	// machine run, so unlike the live suite the online half can fan out
	// too. Logs land in index-addressed slots and are written, summed,
	// and (for metrics) adopted in index order, keeping the output
	// identical at any worker count.
	work := workloads.SeedRuns(*seeds)
	progs := make([]*racereplay.Program, len(work))
	for i, sr := range work {
		if progs[i], err = sr.Scenario.Program(); err != nil {
			return err
		}
	}
	logs := make([]*racereplay.Log, len(work))
	errs := make([]error, len(work))
	forks := make([]*racereplay.Metrics, len(work))
	pool := sched.NewPool(*jobs, reg)
	for i := range work {
		i := i
		forks[i] = reg.Fork()
		pool.Submit(func() {
			logs[i], _, errs[i] = racereplay.RecordOnlineInstrumented(
				progs[i], work[i].Scenario.Config(), racereplay.OnlineConfig{Detect: *online}, forks[i])
		})
	}
	pool.Wait()
	for i, f := range forks {
		reg.Adopt(f)
		if errs[i] != nil {
			return fmt.Errorf("%s seed %d: %w", work[i].Scenario.Name, work[i].Scenario.Seed, errs[i])
		}
	}

	var totalInstr uint64
	var totalBytes int
	man := racereplay.NewManifest()
	raceFree := 0
	for i, log := range logs {
		name := fmt.Sprintf("%s-%d.rlog", work[i].Scenario.Name, work[i].K)
		path := filepath.Join(*dir, name)
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := racereplay.WriteLogFormat(f, log, lf); err != nil {
			f.Close()
			return err
		}
		f.Close()
		st := racereplay.LogStatsFormat(log, lf)
		totalInstr += st.Instructions
		totalBytes += st.CompressedBytes
		if *online {
			man.Add(name, racereplay.LogDigest(log), log.Online)
			if log.Online != nil && log.Online.RaceFree {
				raceFree++
			}
		}
	}
	fmt.Fprintf(stdout, "recorded %d executions: %d instructions, %d bytes of compressed logs -> %s\n",
		len(logs), totalInstr, totalBytes, *dir)
	if *online {
		// The manifest carries each log's online verdict across process
		// boundaries: a later analyze-dir run re-attaches it (by filename
		// and content hash) and fast-paths the race-free logs.
		if err := man.WriteFile(filepath.Join(*dir, "manifest.json")); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "online verdicts: %d of %d race-free -> %s\n",
			raceFree, len(logs), filepath.Join(*dir, "manifest.json"))
	}
	return metrics.emit(reg)
}

// cmdAnalyzeDir implements the offline half: replay every stored log,
// find and classify the races, and merge verdicts across executions.
func cmdAnalyzeDir(args []string) error {
	fs := flag.NewFlagSet("analyze-dir", flag.ExitOnError)
	dir := fs.String("dir", "logs", "directory of .rlog files")
	dbPath := fs.String("db", "", "race database for suppression")
	jobs := fs.Int("jobs", 0, "analysis workers (0 = GOMAXPROCS); output is identical at any count")
	staticStage := fs.Bool("static", false, "cross-validate static lint candidates against the dynamic results")
	predictStage := fs.Bool("predict", false, "add the prediction stage: feasible reorderings of each recorded schedule, classified by replay")
	auditOut := fs.String("audit-out", "", "write the verdict-provenance trail (racereplay-audit/v1 JSON) to this file")
	metrics := addMetricsFlags(fs)
	fs.Parse(args)
	db, err := openDB(*dbPath)
	if err != nil {
		return err
	}
	reg, err := metrics.registry()
	if err != nil {
		return err
	}
	entries, err := filepath.Glob(filepath.Join(*dir, "*.rlog"))
	if err != nil {
		return err
	}
	if len(entries) == 0 {
		return fmt.Errorf("no .rlog files in %s", *dir)
	}
	sort.Strings(entries)
	// A record-suite -online run leaves a manifest of online verdicts
	// next to the logs. The manifest is advisory: entries re-attach the
	// in-memory Online annotation (enabling the race-free fast path)
	// only when both the filename and the content hash match, and a
	// missing or corrupt manifest just means the full offline pass.
	man, manErr := racereplay.ReadManifest(filepath.Join(*dir, "manifest.json"))
	if manErr != nil {
		if !os.IsNotExist(manErr) {
			reg.Logger().Warn("manifest ignored", "err", manErr.Error())
		}
		man = nil
	}
	// Corrupt or unreadable logs quarantine instead of aborting the
	// batch: the analysis completes over the healthy files and the
	// report lists every excluded one with its typed error (exit 2).
	// Items are slot-indexed by directory order, quarantined files
	// included, so the audit trail covers every input.
	items := make([]workloads.BatchItem, len(entries))
	decodeSp := reg.StartSpan("decode")
	// File decodes fan across the worker pool (a lone file fans its v2
	// thread segments across the same budget instead). Each worker
	// decodes into its slot with a forked registry; all bookkeeping —
	// counter adoption, quarantine, manifest lookup — replays serially
	// in directory order, so the output and the audit trail stay
	// byte-identical at every -jobs count. Salvage mode means a v2
	// container with some corrupt thread segments still contributes its
	// healthy threads instead of quarantining the whole file.
	type decoded struct {
		log    *racereplay.Log
		faults []racereplay.ThreadFault
		err    error
	}
	segJobs := 1
	if len(entries) == 1 {
		segJobs = *jobs
	}
	slots := make([]decoded, len(entries))
	decForks := make([]*racereplay.Metrics, len(entries))
	dpool := sched.NewPool(*jobs, reg)
	for i := range entries {
		i := i
		decForks[i] = reg.Fork()
		dpool.Submit(func() {
			d := &slots[i]
			data, err := os.ReadFile(entries[i])
			if err != nil {
				d.err = err
				return
			}
			d.log, d.faults, d.err = racereplay.DecodeLogOpts(data, racereplay.DecodeOptions{
				Jobs: segJobs, Salvage: true, Metrics: decForks[i],
			})
			if d.err == nil {
				d.err = racereplay.ValidateLog(d.log)
			}
		})
	}
	dpool.Wait()
	for i, path := range entries {
		reg.Adopt(decForks[i])
		label := filepath.Base(path)
		log, err := slots[i].log, slots[i].err
		items[i] = workloads.BatchItem{Label: label, Err: err}
		if err != nil {
			reg.Counter("robust.quarantined").Inc()
			reg.EmitLabeled("quarantine", label, uint64(i))
			reg.Logger().Warn("log quarantined at decode",
				"file", label, "err", err.Error())
			continue
		}
		for _, tf := range slots[i].faults {
			reg.Logger().Warn("thread segment salvaged at decode",
				"file", label, "segment", tf.Segment, "tid", tf.TID, "err", tf.Err.Error())
		}
		reg.EmitLabeled("decode", label, log.Instructions())
		if man != nil {
			if e := man.Lookup(label, racereplay.LogDigest(log)); e != nil {
				log.Online = e.Online()
				reg.Counter("decode.manifest_verdicts").Inc()
			}
		}
		items[i].Log = log
		items[i].Scenario = workloads.Scenario{Name: logGroup(label), Seed: log.Seed}
	}
	decodeSp.End()
	run := workloads.AnalyzeBatch(items, workloads.SuiteOptions{
		DB: db, Jobs: *jobs, Registry: reg, Static: *staticStage, Audit: *auditOut != "", Predict: *predictStage,
	})
	if *auditOut != "" {
		if err := run.Audit.WriteFile(*auditOut); err != nil {
			return err
		}
	}
	fmt.Fprintf(stdout, "analyzed %d recorded executions\n", len(run.Scenarios))
	fmt.Fprint(stdout, report.BatchReport{Run: run, Predict: *predictStage, Static: *staticStage}.Render())
	raiseBatchExit(run)
	return metrics.emit(reg)
}

// logGroup is the static grouping key of a log file. record-suite names
// its logs "<scenario>-<k>.rlog", so the key drops ".rlog" and an
// all-digit "-<k>" suffix, pooling one program's seeds exactly like the
// live suite; any other name is a group of its own. Programs decoded
// from logs carry no data-symbol table, so the static section's
// candidate cells render as hex addresses.
func logGroup(file string) string {
	base := strings.TrimSuffix(file, ".rlog")
	i := strings.LastIndexByte(base, '-')
	if i > 0 && i < len(base)-1 && strings.Trim(base[i+1:], "0123456789") == "" {
		return base[:i]
	}
	return base
}

// cmdValidate decodes and structurally checks logs without analyzing
// them — the cheap pre-flight for a directory of recordings. Invalid
// files are reported per-file and raise the exit status to 2; the
// command itself only errors when given no files.
func cmdValidate(args []string) error {
	fs := flag.NewFlagSet("validate", flag.ExitOnError)
	metrics := addMetricsFlags(fs)
	fs.Parse(args)
	if fs.NArg() == 0 {
		return fmt.Errorf("validate wants one or more log files")
	}
	reg, err := metrics.registry()
	if err != nil {
		return err
	}
	sp := reg.StartSpan("decode")
	bad := 0
	for i, path := range fs.Args() {
		label := filepath.Base(path)
		log, err := loadLog(path)
		if err == nil {
			err = racereplay.ValidateLog(log)
		}
		reg.Counter("validate.files").Inc()
		if err != nil {
			bad++
			reg.Counter("validate.invalid").Inc()
			reg.EmitLabeled("quarantine", label, uint64(i))
			reg.Logger().Warn("invalid log", "file", label, "err", err.Error())
			fmt.Fprintf(stdout, "%s: INVALID: %v\n", path, err)
			continue
		}
		reg.Counter("validate.instructions").Add(log.Instructions())
		reg.Counter("validate.threads").Add(uint64(len(log.Threads)))
		reg.EmitLabeled("decode", label, log.Instructions())
		fmt.Fprintf(stdout, "%s: ok (%d instructions, %d threads)\n",
			path, log.Instructions(), len(log.Threads))
	}
	sp.End()
	if bad > 0 {
		fmt.Fprintf(stdout, "%d of %d logs invalid\n", bad, fs.NArg())
		raiseExit(2)
	}
	return metrics.emit(reg)
}

// cmdAudit renders a verdict-provenance trail (written by the suite or
// analyze-dir -audit-out flag) as the human-readable audit section —
// the quick way to read back which replay evidence produced a verdict.
func cmdAudit(args []string) error {
	fs := flag.NewFlagSet("audit", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("audit wants exactly one racereplay-audit JSON file")
	}
	f, err := racereplay.ReadAuditFile(fs.Arg(0))
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, racereplay.AuditSection(f))
	return nil
}

// cmdChaos fuzzes the decode path with deterministically corrupted log
// variants and enforces the robustness contract: every corruption must
// produce a structured error or a degraded-but-labeled result — never a
// panic, never an unbounded allocation.
func cmdChaos(args []string) error {
	fs := flag.NewFlagSet("chaos", flag.ExitOnError)
	n := fs.Int("corruptions", 200, "number of corrupted log variants to decode")
	seed := fs.Int64("seed", 1, "corruption seed; equal seeds corrupt identically")
	name := fs.String("scenario", "exec01", "scenario recorded as the corruption target")
	logPath := fs.String("log", "", "corrupt an existing .rlog file instead of recording a scenario")
	serveURL := fs.String("serve", "", "fire the corruption sweep at a running 'racer serve' endpoint (e.g. http://127.0.0.1:8844) instead of the local decoder")
	metrics := addMetricsFlags(fs)
	fs.Parse(args)
	// Sweep every container format the decoder sniffs: a recorded
	// scenario is corrupted both as a v1 and as a v2 container. An
	// explicit -log file is swept as-is, whatever format it holds.
	type target struct {
		label     string
		container []byte
	}
	var targets []target
	if *logPath != "" {
		b, err := os.ReadFile(*logPath)
		if err != nil {
			return err
		}
		targets = []target{{*logPath, b}}
	} else {
		s, err := workloads.FindScenario(*name)
		if err != nil {
			return err
		}
		prog, err := s.Program()
		if err != nil {
			return err
		}
		log, err := racereplay.Record(prog, s.Config())
		if err != nil {
			return err
		}
		for _, lf := range []racereplay.LogFormat{racereplay.FormatV1, racereplay.FormatV2} {
			var buf bytes.Buffer
			if err := racereplay.WriteLogFormat(&buf, log, lf); err != nil {
				return err
			}
			targets = append(targets, target{"format " + string(lf), buf.Bytes()})
		}
	}
	reg, err := metrics.registry()
	if err != nil {
		return err
	}
	violations := 0
	for _, tgt := range targets {
		if len(targets) > 1 {
			fmt.Fprintf(stdout, "== %s ==\n", tgt.label)
		}
		var rep interface {
			Summary() string
			Violations() int
		}
		if *serveURL != "" {
			rep = chaos.RunHTTP(*serveURL, tgt.container, *n, *seed, reg)
		} else {
			rep = chaos.Run(tgt.container, *n, *seed, reg)
		}
		fmt.Fprint(stdout, rep.Summary())
		violations += rep.Violations()
	}
	if err := metrics.emit(reg); err != nil {
		return err
	}
	if violations > 0 {
		if *serveURL != "" {
			return fmt.Errorf("chaos: service contract violated %d times", violations)
		}
		return fmt.Errorf("chaos: robustness contract violated %d times", violations)
	}
	return nil
}

func cmdMarkBenign(args []string) error {
	fs := flag.NewFlagSet("mark-benign", flag.ExitOnError)
	dbPath := fs.String("db", "races.json", "race database path")
	race := fs.String("race", "", "site pair, e.g. 'suite:a <-> suite:b'")
	note := fs.String("note", "", "triage note")
	fs.Parse(args)
	if *race == "" {
		return fmt.Errorf("mark-benign wants -race 'siteA <-> siteB'")
	}
	parts := strings.Split(*race, "<->")
	if len(parts) != 2 {
		return fmt.Errorf("race must look like 'siteA <-> siteB'")
	}
	db, err := racereplay.LoadDB(*dbPath)
	if err != nil {
		return err
	}
	sites := hb.MakeSitePair(strings.TrimSpace(parts[0]), strings.TrimSpace(parts[1]))
	db.MarkBenign(sites, *note)
	if err := db.Save(*dbPath); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "marked %s benign in %s\n", sites, *dbPath)
	return nil
}

func cmdDebug(args []string) error {
	fs := flag.NewFlagSet("debug", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("debug wants one log file")
	}
	log, err := loadLog(fs.Arg(0))
	if err != nil {
		return err
	}
	return debug.REPL(log, os.Stdin, stdout)
}

func cmdDisasm(args []string) error {
	fs := flag.NewFlagSet("disasm", flag.ExitOnError)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("disasm wants one program file")
	}
	prog, err := loadProgram(fs.Arg(0))
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, prog.Disassemble())
	return nil
}

func cmdScenarios(args []string) error {
	for _, s := range workloads.Scenarios() {
		names := make([]string, len(s.Templates))
		for i, t := range s.Templates {
			names[i] = t.Name
		}
		fmt.Fprintf(stdout, "%s (seed %d): %s\n", s.Name, s.Seed, strings.Join(names, " "))
	}
	fmt.Fprintln(stdout, "browse (perf workload)")
	return nil
}
