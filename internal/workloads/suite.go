package workloads

import (
	"fmt"

	"repro/internal/audit"
	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/record"
	"repro/internal/sched"
	"repro/internal/trace"
)

// ScenarioRun pairs a scenario with its full analysis.
type ScenarioRun struct {
	Scenario Scenario
	Result   *core.Result
}

// SuiteRun is the analysis of the whole 18-execution suite.
type SuiteRun struct {
	Scenarios []ScenarioRun
	Merged    *classify.Classification
	// Quarantined lists the scenario×seed items that failed — a program
	// that would not build, a recording that died, a log that would not
	// replay, or an analysis that panicked. The run completes with the
	// healthy scenarios; quarantined items carry their label and error
	// for the report's quarantine section.
	Quarantined []core.Quarantined
	// Static is the static cross-validation stage (nil unless
	// SuiteOptions.Static was set): per-scenario lint reports joined
	// against the dynamic evidence above.
	Static *SuiteStatic
	// Audit is the verdict-provenance trail (nil unless
	// SuiteOptions.Audit was set): one audit.Execution per scenario ×
	// seed slot, in suite order, quarantined slots included. The file
	// is a deterministic function of the suite inputs — byte-identical
	// at every Jobs count.
	Audit *audit.File
	// Predict is the prediction stage's aggregation (nil unless
	// SuiteOptions.Predict was set): per-execution candidate counts and
	// the merged classification of predicted-new races.
	Predict *SuitePredict
}

// SuiteOptions configures a suite analysis.
type SuiteOptions struct {
	// DB, when non-nil, suppresses races a developer already marked
	// benign.
	DB *classify.DB
	// Seeds is the number of scheduler seeds per scenario (the base
	// seed plus fixed offsets); values below 1 mean 1.
	Seeds int
	// Jobs bounds the worker pool for the offline half (replay, detect,
	// classify). Values below 1 mean GOMAXPROCS; 1 runs serially. The
	// merged output is byte-identical at every worker count.
	Jobs int
	// Registry, when non-nil, receives pipeline metrics: the merged
	// "suite/native|record|replay|detect|classify" span ladder, every
	// stage's counters, and the pool's sched.* metrics. Each scenario is
	// then also run once on a bare machine (no observer) under the
	// "native" span — the §5.1 baseline the overhead ladder is measured
	// against. Nil is off.
	Registry *obs.Registry
	// Static adds the static cross-validation stage: every base scenario
	// is lint-analyzed ahead of execution and its candidates joined
	// against the dynamic races and verdicts (SuiteRun.Static).
	Static bool
	// NoMemo disables the dual-order replay cache for the offline half.
	// The default (memoization on, one cache shared across the batch)
	// produces byte-identical suite output; NoMemo exists for
	// measurement and the equivalence tests.
	NoMemo bool
	// Audit assembles the verdict-provenance trail into SuiteRun.Audit:
	// per execution, the input log's content hash and per-race replay
	// evidence (live-in fingerprints, both orders' outcomes, canonical
	// cache attribution).
	Audit bool
	// Online attaches the incremental race detector to every recording.
	// A race-free online verdict lets the offline half skip that log's
	// replay+detect+classify pass entirely; any raced (or stopped)
	// recording takes the full offline pass, which remains the source of
	// truth. The suite report is byte-identical with Online on and off.
	Online bool
	// StopOnRace (with Online) ends each recording at the first
	// confirmed race. The truncated log still replays and classifies —
	// this trades instance coverage for recording time, so it is a
	// monitoring knob, not a default.
	StopOnRace bool
	// Predict adds the prediction stage to every analyzed execution:
	// feasible reorderings of the recorded schedule that would race are
	// proposed, classified by the same dual-order replay, and aggregated
	// into SuiteRun.Predict. Predict disables the online race-free fast
	// path — a race-free observed interleaving is exactly where
	// prediction has work to do.
	Predict bool
	// PredictWindow bounds the prediction solver's region-schedule
	// search distance (0 = the predict package default).
	PredictWindow int
}

// RunSuite records, replays, detects, and classifies every scenario, then
// merges the per-execution classifications into the cross-execution
// per-race verdicts of §5.2.1. db, when non-nil, suppresses races a
// developer already marked benign.
func RunSuite(db *classify.DB) (*SuiteRun, error) {
	return RunSuiteOpts(SuiteOptions{DB: db})
}

// RunSuiteOpts is the suite driver every other entry point delegates
// to. Recording is the online half of the pipeline and stays serial —
// the paper's premise is that the production run only pays for logging —
// while the offline analysis of every scenario × seed fans out across
// opts.Jobs workers with deterministic, input-order merging: the report,
// the merged classification, and the stage counters are identical at
// every worker count.
//
// The run has quarantine semantics: a scenario×seed that fails at any
// stage is skipped with its error recorded in SuiteRun.Quarantined (and
// counted on robust.quarantined), and the rest of the suite completes.
// The error return is reserved for failures that leave nothing to
// report.
func RunSuiteOpts(opts SuiteOptions) (*SuiteRun, error) {
	seeds := opts.Seeds
	if seeds < 1 {
		seeds = 1
	}
	reg := opts.Registry
	suite := reg.StartSpan("suite")
	defer suite.End()

	// Online half: record every scenario × seed serially, keeping the
	// native baseline next to each recording as before. A recording
	// that fails — or panics — quarantines its scenario×seed slot.
	type recording struct {
		scenario Scenario
		label    string
		slot     int
		log      *trace.Log
		machine  *machine.Result
	}
	run := &SuiteRun{}
	var recs []recording
	// Audit envelopes, one per scenario×seed slot in suite order;
	// classify fills each healthy slot's Races through the pointer.
	var audits []*audit.Execution
	slot := 0
	for _, base := range Scenarios() {
		// One assembly per scenario: the program does not depend on the
		// seed, only the machine configuration does.
		prog, progErr := base.Program()
		for k := 0; k < seeds; k++ {
			s := base
			s.Seed = base.Seed + int64(7777*k)
			label := s.Name
			if seeds > 1 {
				label = fmt.Sprintf("%s#%d", s.Name, k)
			}
			rec := recording{scenario: s, label: label, slot: slot}
			err := sched.Guard(reg, func() error {
				if progErr != nil {
					return fmt.Errorf("program: %w", progErr)
				}
				if reg != nil {
					if err := runNative(prog, s.Config(), reg); err != nil {
						return fmt.Errorf("native baseline: %w", err)
					}
				}
				oc := record.OnlineConfig{Detect: opts.Online, StopOnFirstRace: opts.StopOnRace}
				log, mres, _, err := record.Run(prog, s.Config(), oc, reg)
				if err != nil {
					return fmt.Errorf("record: %w", err)
				}
				rec.log, rec.machine = log, mres
				return nil
			})
			if opts.Audit {
				ae := &audit.Execution{Scenario: label, Seed: s.Seed}
				if err == nil {
					ae.LogSHA256 = core.LogDigest(rec.log)
				} else {
					ae.Quarantined = err.Error()
				}
				audits = append(audits, ae)
			}
			if err != nil {
				run.Quarantined = append(run.Quarantined, core.Quarantined{Index: slot, Label: label, Err: err})
				reg.Counter("robust.quarantined").Inc()
				reg.EmitLabeled("quarantine", label, uint64(slot))
				reg.Logger().Warn("recording quarantined",
					"slot", slot, "scenario", label, "err", err.Error())
			} else {
				recs = append(recs, rec)
			}
			slot++
		}
	}

	// Offline half: replay, detect, and classify every healthy log
	// across the shared pool; results land in input order and bad logs
	// land in quarantine without aborting the batch.
	logs := make([]*trace.Log, len(recs))
	for i := range recs {
		logs[i] = recs[i].log
	}
	results, quarantined := core.AnalyzeLogs(logs, func(i int) classify.Options {
		o := classify.Options{
			Scenario:      recs[i].label,
			Seed:          recs[i].scenario.Seed,
			DB:            opts.DB,
			NoMemo:        opts.NoMemo,
			Predict:       opts.Predict,
			PredictWindow: opts.PredictWindow,
		}
		if opts.Audit {
			o.Audit = audits[recs[i].slot]
		}
		return o
	}, opts.Jobs, reg)
	run.Quarantined = append(run.Quarantined, quarantined...)
	if opts.Audit {
		// Analysis-time quarantines supersede whatever classify may have
		// started writing before the failure.
		for _, q := range quarantined {
			ae := audits[recs[q.Index].slot]
			ae.Quarantined = q.Err.Error()
			ae.Races = nil
		}
		run.Audit = audit.NewFile()
		for _, ae := range audits {
			run.Audit.Executions = append(run.Audit.Executions, *ae)
		}
		run.Audit.DeriveCacheHits()
	}

	var parts []*classify.Classification
	var labels []string
	for i, res := range results {
		if res == nil {
			continue
		}
		res.Machine = recs[i].machine
		run.Scenarios = append(run.Scenarios, ScenarioRun{Scenario: recs[i].scenario, Result: res})
		parts = append(parts, res.Classification)
		labels = append(labels, recs[i].label)
	}
	run.Merged = classify.Merge(parts...)
	if opts.Predict {
		healthy := make([]*core.Result, 0, len(run.Scenarios))
		for _, sr := range run.Scenarios {
			healthy = append(healthy, sr.Result)
		}
		run.Predict = BuildSuitePredict(labels, healthy)
	}
	if opts.Static {
		run.Static = crossValidateSuite(run, opts.Jobs, reg)
	}
	publishSuiteMetrics(reg, run)
	return run, nil
}

// runNative executes prog on a bare machine — no observer, no recorder —
// under the "native" span, giving the ladder its uninstrumented baseline.
func runNative(prog *isa.Program, cfg machine.Config, reg *obs.Registry) error {
	sp := reg.StartSpan("native")
	defer sp.End()
	cfg.Observer = nil
	m, err := machine.New(prog, cfg)
	if err != nil {
		return err
	}
	res := m.Run()
	reg.Counter("native.instructions").Add(res.TotalSteps)
	reg.Counter("native.executions").Inc()
	return nil
}

// publishSuiteMetrics records the merged suite verdicts (report.* is the
// fifth pipeline stage: what the tool hands to developers).
func publishSuiteMetrics(reg *obs.Registry, run *SuiteRun) {
	if reg == nil {
		return
	}
	benign, harmful := run.Merged.CountByVerdict()
	reg.Counter("report.scenarios").Add(uint64(len(run.Scenarios)))
	reg.Counter("report.unique_races").Add(uint64(len(run.Merged.Races)))
	reg.Counter("report.potentially_benign").Add(uint64(benign))
	reg.Counter("report.potentially_harmful").Add(uint64(harmful))
	reg.Counter("report.instances").Add(uint64(run.Merged.TotalInstances()))
}

// RunSuiteSeeds analyzes every scenario under `seeds` different scheduler
// seeds each (the base seed plus offsets) and merges everything. This is
// the paper's coverage lever: "the more the number of test cases
// analyzed, the more likely harmful data races will be discovered" (§1) —
// and the more instances accumulate per race, the greater the confidence
// in a potentially-benign verdict (§4.3).
func RunSuiteSeeds(db *classify.DB, seeds int) (*SuiteRun, error) {
	return RunSuiteOpts(SuiteOptions{DB: db, Seeds: seeds})
}

// FindScenario returns the scenario with the given name, or an error.
func FindScenario(name string) (Scenario, error) {
	if name == "browse" {
		return BrowseScenario(), nil
	}
	if name == "service" {
		return ServiceScenario(), nil
	}
	for _, s := range Scenarios() {
		if s.Name == name {
			return s, nil
		}
	}
	return Scenario{}, fmt.Errorf("workloads: unknown scenario %q", name)
}
