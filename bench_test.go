// Benchmarks regenerating every table and figure of the paper's
// evaluation (§5), plus the §5.1 performance ladder. Run with:
//
//	go test -bench=. -benchmem
//
// The §5.1 ladder (native → record → replay → happens-before analysis →
// classification) reports per-stage time over the same browse workload;
// EXPERIMENTS.md derives the overhead ratios the paper quotes (record 6x,
// replay 10x, analysis 45x, classification 280x) from these numbers.
package racereplay

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/classify"
	"repro/internal/hb"
	"repro/internal/lockset"
	"repro/internal/machine"
	"repro/internal/replay"
	"repro/internal/report"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// browseLog caches one recorded browse-scenario log for the offline
// stages of the §5.1 ladder.
var browseLog *trace.Log

func browse(b *testing.B) (*Program, machine.Config) {
	b.Helper()
	s := workloads.BrowseScenario()
	prog, err := s.Program()
	if err != nil {
		b.Fatal(err)
	}
	return prog, s.Config()
}

func getBrowseLog(b *testing.B) *trace.Log {
	b.Helper()
	if browseLog == nil {
		prog, cfg := browse(b)
		log, err := Record(prog, cfg)
		if err != nil {
			b.Fatal(err)
		}
		browseLog = log
	}
	return browseLog
}

// --- Table 1 / Table 2 / Figures 3–5 --------------------------------------

// BenchmarkTable1Classification regenerates Table 1: the full pipeline
// over all 18 executions, merged, joined with ground truth.
func BenchmarkTable1Classification(b *testing.B) {
	for i := 0; i < b.N; i++ {
		run, err := RunSuite(nil)
		if err != nil {
			b.Fatal(err)
		}
		t1 := report.BuildTable1(run.Merged, report.SuiteTruth)
		if t1.Total() != 68 {
			b.Fatalf("table 1 total = %d, want 68", t1.Total())
		}
		rb, rh := t1.PotentiallyBenign()
		if rb != 32 || rh != 0 {
			b.Fatalf("potentially benign = %d/%d, want 32/0", rb, rh)
		}
	}
}

// BenchmarkTable2BenignCensus regenerates Table 2's benign-race census.
func BenchmarkTable2BenignCensus(b *testing.B) {
	run, err := RunSuite(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t2 := report.BuildTable2(run.Merged, report.SuiteTruth)
		if t2.Counts[workloads.CatApprox] != 23 {
			b.Fatalf("approx = %d, want 23", t2.Counts[workloads.CatApprox])
		}
	}
}

// BenchmarkFigure3BenignInstances regenerates Figure 3's series.
func BenchmarkFigure3BenignInstances(b *testing.B) {
	run, err := RunSuite(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := report.BuildFigure3(run.Merged, report.SuiteTruth)
		if len(f.Rows) != 32 {
			b.Fatalf("figure 3 rows = %d", len(f.Rows))
		}
	}
}

// BenchmarkFigure4HarmfulInstances regenerates Figure 4's series.
func BenchmarkFigure4HarmfulInstances(b *testing.B) {
	run, err := RunSuite(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := report.BuildFigure4(run.Merged, report.SuiteTruth)
		if len(f.Rows) != 7 {
			b.Fatalf("figure 4 rows = %d", len(f.Rows))
		}
	}
}

// BenchmarkFigure5MisclassifiedInstances regenerates Figure 5's series.
func BenchmarkFigure5MisclassifiedInstances(b *testing.B) {
	run, err := RunSuite(nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := report.BuildFigure5(run.Merged, report.SuiteTruth)
		if len(f.Rows) != 29 {
			b.Fatalf("figure 5 rows = %d", len(f.Rows))
		}
	}
}

// --- §5.1 performance ladder ----------------------------------------------

// BenchmarkNativeExecution is the baseline: the browse workload on the
// machine with no observer attached.
func BenchmarkNativeExecution(b *testing.B) {
	prog, cfg := browse(b)
	var instrs uint64
	for i := 0; i < b.N; i++ {
		m, err := machine.New(prog, cfg)
		if err != nil {
			b.Fatal(err)
		}
		res := m.Run()
		instrs = res.TotalSteps
	}
	b.ReportMetric(float64(instrs), "instructions")
}

// BenchmarkRecording measures the same run with the iDNA-style recorder
// attached (the paper's ~6x stage).
//
// This is also the zero-cost-when-disabled guard for the observability
// layer: Record takes no registry, so it attaches the recorder directly
// (no observer fan-out) and the recorder's per-event tallies are plain
// int increments. Measured before/after instrumenting the pipeline
// (-benchtime=2s -count=5, Xeon 2.10GHz): seed 9.19–13.87 ms/op
// (median 10.06), instrumented tree 9.38–10.41 ms/op (median 9.89) —
// the delta is inside run-to-run noise.
func BenchmarkRecording(b *testing.B) {
	prog, cfg := browse(b)
	for i := 0; i < b.N; i++ {
		if _, err := Record(prog, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplay measures pure deterministic re-execution from the log
// (the paper's ~10x stage).
func BenchmarkReplay(b *testing.B) {
	log := getBrowseLog(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := replay.Run(log, replay.Options{SkipAccesses: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHBAnalysis measures replay with access collection plus the
// happens-before race detection (the paper's ~45x stage).
func BenchmarkHBAnalysis(b *testing.B) {
	log := getBrowseLog(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exec, err := Replay(log)
		if err != nil {
			b.Fatal(err)
		}
		DetectRaces(exec)
	}
}

// BenchmarkClassification measures the full offline analysis including
// dual-order replay of every race instance (the paper's ~280x stage).
func BenchmarkClassification(b *testing.B) {
	log := getBrowseLog(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AnalyzeLog(log, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLogSize reports the §5.1 log-size metrics (0.8 bit/instruction
// raw, ~0.3 compressed in the paper) as benchmark metrics.
func BenchmarkLogSize(b *testing.B) {
	log := getBrowseLog(b)
	var s SizeStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s = LogStats(log)
	}
	b.ReportMetric(s.RawBitsPerInstr(), "rawbits/instr")
	b.ReportMetric(s.CompressedBitsPerInstr(), "zipbits/instr")
	b.ReportMetric(s.BytesPerBillion()/1e6, "MB/Ginstr")
}

// --- Ablations --------------------------------------------------------------

// BenchmarkDetectorAblation compares the paper's region-overlap detector
// against the vector-clock variant on the same executions (A1).
func BenchmarkDetectorAblation(b *testing.B) {
	s := workloads.Scenarios()[0]
	prog, err := s.Program()
	if err != nil {
		b.Fatal(err)
	}
	log, err := Record(prog, s.Config())
	if err != nil {
		b.Fatal(err)
	}
	exec, err := Replay(log)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("interval", func(b *testing.B) {
		var races int
		for i := 0; i < b.N; i++ {
			races = len(hb.Detect(exec).Races)
		}
		b.ReportMetric(float64(races), "races")
	})
	b.Run("vclock", func(b *testing.B) {
		var races int
		for i := 0; i < b.N; i++ {
			rep, err := hb.DetectVC(exec, nil)
			if err != nil {
				b.Fatal(err)
			}
			races = len(rep.Races)
		}
		b.ReportMetric(float64(races), "races")
	})
}

// BenchmarkLocksetBaseline runs the Eraser-style baseline over the suite's
// first execution (A2): it warns on correctly synchronized idioms the
// happens-before detector is silent about.
func BenchmarkLocksetBaseline(b *testing.B) {
	s := workloads.Scenarios()[0]
	prog, err := s.Program()
	if err != nil {
		b.Fatal(err)
	}
	log, err := Record(prog, s.Config())
	if err != nil {
		b.Fatal(err)
	}
	exec, err := Replay(log)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var warnings int
	for i := 0; i < b.N; i++ {
		warnings = len(lockset.Detect(exec).Warnings)
	}
	b.ReportMetric(float64(warnings), "warnings")
}

// BenchmarkSuppressionWorkflow measures re-analysis with a fully
// populated race database (the paper's triage loop, §1).
func BenchmarkSuppressionWorkflow(b *testing.B) {
	run, err := RunSuite(nil)
	if err != nil {
		b.Fatal(err)
	}
	db := NewDB()
	for _, r := range run.Merged.Races {
		if h, _, ok := report.SuiteTruth(r.Sites.A); ok && !h && r.Verdict == classify.PotentiallyHarmful {
			db.MarkBenign(r.Sites, "triaged benign")
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run2, err := RunSuite(db)
		if err != nil {
			b.Fatal(err)
		}
		_, harmful := run2.Merged.CountByVerdict()
		if harmful != 7 {
			b.Fatalf("harmful = %d, want 7", harmful)
		}
	}
}

// BenchmarkSchedulerPolicies compares how many unique races each
// interleaving strategy exposes on the same scenario across ten seeds —
// the coverage knob of any dynamic race analysis.
func BenchmarkSchedulerPolicies(b *testing.B) {
	s := workloads.Scenarios()[0]
	prog, err := s.Program()
	if err != nil {
		b.Fatal(err)
	}
	for _, policy := range []machine.SchedPolicy{
		machine.PolicyRandom, machine.PolicyRoundRobin, machine.PolicyPCT,
	} {
		b.Run(policy.String(), func(b *testing.B) {
			var races int
			for i := 0; i < b.N; i++ {
				seen := map[hb.SitePair]bool{}
				for seed := int64(1); seed <= 10; seed++ {
					cfg := s.Config()
					cfg.Seed = seed
					cfg.Policy = policy
					log, err := Record(prog, cfg)
					if err != nil {
						b.Fatal(err)
					}
					exec, err := Replay(log)
					if err != nil {
						b.Fatal(err)
					}
					for _, r := range DetectRaces(exec).Races {
						seen[r.Sites] = true
					}
				}
				races = len(seen)
			}
			b.ReportMetric(float64(races), "uniqueraces")
		})
	}
}

// BenchmarkOracleAblation measures classification with and without the
// §4.2.1 versioned-memory oracle (ablation A3): the oracle lets the
// virtual processor continue through reads outside the regions' live-ins.
func BenchmarkOracleAblation(b *testing.B) {
	s := workloads.Scenarios()[1]
	prog, err := s.Program()
	if err != nil {
		b.Fatal(err)
	}
	log, err := Record(prog, s.Config())
	if err != nil {
		b.Fatal(err)
	}
	for _, useOracle := range []bool{false, true} {
		name := "base"
		if useOracle {
			name = "oracle"
		}
		b.Run(name, func(b *testing.B) {
			var rf int
			for i := 0; i < b.N; i++ {
				res, err := AnalyzeLog(log, Options{UseOracle: useOracle})
				if err != nil {
					b.Fatal(err)
				}
				rf = 0
				for _, r := range res.Classification.Races {
					rf += r.RF
				}
			}
			b.ReportMetric(float64(rf), "rf-instances")
		})
	}
}

// BenchmarkSuiteCoverageScaling shows the paper's coverage lever: more
// recorded test cases per scenario accumulate more instances per race
// (and hence more confidence per verdict) at linear cost.
func BenchmarkSuiteCoverageScaling(b *testing.B) {
	for _, seeds := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("seeds=%d", seeds), func(b *testing.B) {
			var instances, races int
			for i := 0; i < b.N; i++ {
				run, err := RunSuiteSeeds(nil, seeds)
				if err != nil {
					b.Fatal(err)
				}
				instances = run.Merged.TotalInstances()
				races = len(run.Merged.Races)
			}
			b.ReportMetric(float64(instances), "instances")
			b.ReportMetric(float64(races), "uniqueraces")
		})
	}
}

// BenchmarkServiceScenario times the second perf workload: deep call
// stacks, heap churn, and locked accumulation (native vs full analysis).
func BenchmarkServiceScenario(b *testing.B) {
	s := workloads.ServiceScenario()
	prog, err := s.Program()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("native", func(b *testing.B) {
		var steps uint64
		for i := 0; i < b.N; i++ {
			m, err := machine.New(prog, s.Config())
			if err != nil {
				b.Fatal(err)
			}
			steps = m.Run().TotalSteps
		}
		b.ReportMetric(float64(steps), "instructions")
	})
	b.Run("analyze", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			log, err := Record(prog, s.Config())
			if err != nil {
				b.Fatal(err)
			}
			if _, err := AnalyzeLog(log, Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkParallelClassification measures the offline-analysis wall
// clock with instance-level parallelism (a pure implementation lever the
// paper's offline setting invites).
func BenchmarkParallelClassification(b *testing.B) {
	log := getBrowseLog(b)
	exec, err := Replay(log)
	if err != nil {
		b.Fatal(err)
	}
	races := DetectRaces(exec)
	for _, par := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Classify(exec, races, Options{Parallel: par})
			}
		})
	}
}

// BenchmarkMemoizedClassification measures the dual-order replay stage
// with the live-in fingerprint cache on and off, serial and fanned out —
// the tentpole's before/after in one grid. Each iteration classifies
// with a fresh per-Run cache (the Options zero value), so memo=on
// measures the steady within-execution hit pattern, not an ever-warmer
// cross-iteration cache. The hitrate metric reports the cache's hit
// fraction for the same workload.
func BenchmarkMemoizedClassification(b *testing.B) {
	log := getBrowseLog(b)
	exec, err := Replay(log)
	if err != nil {
		b.Fatal(err)
	}
	races := DetectRaces(exec)
	for _, memo := range []struct {
		name   string
		noMemo bool
	}{{"memo=on", false}, {"memo=off", true}} {
		for _, workers := range []int{1, 8} {
			memo, workers := memo, workers
			b.Run(fmt.Sprintf("%s/workers=%d", memo.name, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					Classify(exec, races, Options{Parallel: workers, NoMemo: memo.noMemo})
				}
				b.StopTimer()
				reg := NewMetrics()
				Classify(exec, races, Options{Parallel: workers, NoMemo: memo.noMemo, Metrics: reg})
				snap := reg.Snapshot()
				h, m := snap.Counters["classify.memo.hits"], snap.Counters["classify.memo.misses"]
				if h+m > 0 {
					b.ReportMetric(float64(h)/float64(h+m), "hitrate")
				} else {
					b.ReportMetric(0, "hitrate")
				}
			})
		}
	}
}

// BenchmarkQuantumSensitivity varies the scheduler's preemption quantum:
// finer preemption exposes more racy interleavings per recording — the
// knob behind "extensively stress-tested build" in the paper's setup.
func BenchmarkQuantumSensitivity(b *testing.B) {
	s := workloads.Scenarios()[0]
	prog, err := s.Program()
	if err != nil {
		b.Fatal(err)
	}
	for _, quantum := range []int{1, 12, 96} {
		b.Run(fmt.Sprintf("quantum=%d", quantum), func(b *testing.B) {
			var instances int
			for i := 0; i < b.N; i++ {
				cfg := s.Config()
				cfg.MaxQuantum = quantum
				log, err := Record(prog, cfg)
				if err != nil {
					b.Fatal(err)
				}
				exec, err := Replay(log)
				if err != nil {
					b.Fatal(err)
				}
				instances = DetectRaces(exec).TotalInstances
			}
			b.ReportMetric(float64(instances), "instances")
		})
	}
}

// BenchmarkSuite measures the full suite drive at one worker versus a
// fanned-out pool — the wall-clock case for -jobs. Recording is serial
// in both; only the offline analysis fans out, so the gap is the
// parallelizable fraction the paper calls out (~280x of native is
// classification). On a single-core host the jobs>1 runs double as a
// pool-overhead measurement: they should track jobs=1 closely.
func BenchmarkSuite(b *testing.B) {
	bench := func(jobs int) func(*testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := workloads.RunSuiteOpts(workloads.SuiteOptions{Seeds: 2, Jobs: jobs}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.Run("jobs=1", bench(1))
	if n := runtime.GOMAXPROCS(0); n > 1 {
		b.Run(fmt.Sprintf("jobs=%d", n), bench(0))
	}
	b.Run("jobs=8", bench(8))
}

// BenchmarkTimelineOverhead is the flight recorder's cost contract on
// the classify hot path, which calls Emit once per memo lookup. With no
// timeline attached (the default), a registry must add zero allocations
// over running with no registry at all — asserted, not just reported,
// so the CI bench smoke trips if an allocation sneaks onto the off
// path. The timeline=on case reports what turning the recorder on
// costs.
func BenchmarkTimelineOverhead(b *testing.B) {
	log := getBrowseLog(b)
	exec, err := Replay(log)
	if err != nil {
		b.Fatal(err)
	}
	races := DetectRaces(exec)
	classify := func(reg *Metrics) { Classify(exec, races, Options{Parallel: 1, Metrics: reg}) }

	classify(nil) // warm the shared caches outside the measurements
	base := testing.AllocsPerRun(5, func() { classify(nil) })

	b.Run("timeline=off", func(b *testing.B) {
		reg := NewMetrics()
		classify(reg) // populate the counter and span tables
		// One classify run performs hundreds of memo lookups, each with
		// an Emit on the hot path; if Emit allocated with the timeline
		// off, the delta would scale with the instance count. The few
		// allocations a warmed registry does add are per-run constants
		// (MemStats snapshots in the stage span), so the budget is a
		// small constant, not a per-instance allowance.
		if got := testing.AllocsPerRun(5, func() { classify(reg) }); got > base+4 {
			b.Errorf("timeline-off hot path allocates: %.1f allocs/op vs %.1f bare (budget +4)", got, base)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			classify(reg)
		}
	})
	b.Run("timeline=on", func(b *testing.B) {
		reg := NewMetrics()
		reg.EnableTimeline(0)
		classify(reg)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			classify(reg)
		}
	})
}
