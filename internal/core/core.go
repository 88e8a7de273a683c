// Package core wires the full pipeline of the paper together: record a
// program's execution into a replay log, replay it, find the data races
// with the happens-before detector, and classify every race by replaying
// both orders of each instance in a virtual processor.
//
// This is the programmatic entry point the CLI, the examples, and the
// benchmark harness all build on; the root racereplay package re-exports
// it as the public API.
package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"

	"repro/internal/classify"
	"repro/internal/hb"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/record"
	"repro/internal/replay"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Result bundles everything one analyzed execution produces.
type Result struct {
	Prog           *isa.Program
	Log            *trace.Log
	Machine        *machine.Result
	Exec           *replay.Execution
	Races          *hb.Report
	Classification *classify.Classification

	// ObservedSites carries the executed data-access sites when the
	// online race-free fast path skipped the replay (Exec == nil), so
	// static cross-validation still sees the run's site coverage. It is
	// nil whenever Exec is populated.
	ObservedSites []string

	// Predicted is the prediction stage's output (nil unless
	// Options.Predict was set): the feasibility report plus the
	// dual-order classification of the predicted-new site pairs.
	Predicted *Predicted
}

// Predicted bundles one execution's prediction stage: the candidate
// report, the predicted-new races (site pairs the observed detector
// never reported), and their dual-order classification — the paper's
// benign/harmful verdict applied to races no single execution exhibited.
type Predicted struct {
	Report         *predict.Report
	NewRaces       *hb.Report
	Classification *classify.Classification
}

// LogStats measures the recorded log's footprint (§5.1 metrics).
func (r *Result) LogStats() trace.SizeStats { return trace.Stats(r.Log) }

// LogDigest is the hex SHA-256 of a log's canonical serialization — the
// content identity audit records attach replay verdicts to. Marshal is
// deterministic, so the digest is a pure function of the recorded
// execution.
func LogDigest(log *trace.Log) string {
	sum := sha256.Sum256(trace.Marshal(log))
	return hex.EncodeToString(sum[:])
}

// DecodeLog decodes and validates one serialized log container — the
// exact decode path analyze-dir applies to a .rlog file, factored out
// for callers that ingest containers from other transports: the
// `racer serve` upload handler and the chaos HTTP sweep. The format is
// sniffed from the magic bytes (v1 and v2 both accepted). Failures are
// the trace package's typed errors, so rejections stay within the
// robustness contract.
func DecodeLog(data []byte) (*trace.Log, error) {
	log, _, err := DecodeLogOpts(data, DecodeOptions{})
	return log, err
}

// DecodeOptions tunes DecodeLogOpts/DecodeLogFrom. The zero value is the
// strict serial decode every pre-v2 caller used.
type DecodeOptions struct {
	// Jobs fans v2 segment decode across workers (<= 1 serial; v1 is
	// inherently serial).
	Jobs int
	// Salvage confines v2 per-segment corruption to the segment's
	// thread where structurally safe: corrupt thread segments are
	// dropped and reported as faults while the healthy remainder
	// analyzes. Damage to the header, index, or meta segment — or a v1
	// log's corruption, which has no segment boundaries to confine it —
	// still condemns the whole log.
	Salvage bool
	// Metrics receives the decode.v2.* counters (nil is off).
	Metrics *obs.Registry
}

// DecodeLogOpts is DecodeLog with worker fan-out, thread salvage, and
// metrics. The fault list is non-empty only for a salvaged v2 log.
func DecodeLogOpts(data []byte, o DecodeOptions) (*trace.Log, []trace.ThreadFault, error) {
	return trace.DecodeOpts(data, trace.V2Options{
		Jobs: o.Jobs, QuarantineThreads: o.Salvage, Metrics: o.Metrics,
	})
}

// DecodeLogFrom decodes a serialized log straight from an io.ReaderAt —
// the spooled-upload path: a v2 container is read header, index, then
// segment by segment, so the full container is never resident; v1 falls
// back to a whole-buffer read.
func DecodeLogFrom(r io.ReaderAt, size int64, o DecodeOptions) (*trace.Log, []trace.ThreadFault, error) {
	return trace.DecodeFrom(r, size, trace.V2Options{
		Jobs: o.Jobs, QuarantineThreads: o.Salvage, Metrics: o.Metrics,
	})
}

// AnalyzeLog runs the offline half over an existing log: replay,
// happens-before detection, and dual-order classification. A non-nil
// opts.Metrics runs each offline stage under its own span ("replay",
// "detect", "classify") and receives every stage's counters; nil is off.
func AnalyzeLog(log *trace.Log, opts classify.Options) (*Result, error) {
	reg := opts.Metrics
	// Race-free fast path: when an online detector watched the recording
	// and saw no race, its verdict provably matches the offline detector
	// on this log, so replay+detect+classify would only reconfirm an
	// empty report. The annotation is in-memory only (never decoded from
	// disk) and any raced or stopped run falls through to the full
	// offline pass, which remains the source of truth.
	// Prediction disables the fast path: a race-free *observed*
	// interleaving is exactly where prediction has work to do.
	if log.Online != nil && log.Online.RaceFree && !log.Online.Stopped && !opts.Predict {
		return analyzeRaceFreeFast(log, opts)
	}
	sp := reg.StartSpan("replay")
	exec, err := replay.Run(log, replay.Options{Metrics: reg})
	sp.End()
	if err != nil {
		return nil, err
	}
	// One access index serves detection and prediction; it is dropped
	// when this analysis returns, or right after detection when there is
	// no prediction to share it with.
	sp = reg.StartSpan("detect")
	idx := hb.NewIndex(exec)
	races := hb.DetectIndex(idx, reg)
	sp.End()
	if !opts.Predict {
		idx = nil
	}
	sp = reg.StartSpan("classify")
	cls := classify.Run(exec, races, opts)
	sp.End()
	res := &Result{
		Prog:           log.Prog,
		Log:            log,
		Exec:           exec,
		Races:          races,
		Classification: cls,
	}
	if opts.Predict {
		res.Predicted = runPredict(idx, races, opts)
	}
	return res, nil
}

// runPredict is the prediction stage: propose feasible reorderings over
// the replayed execution, then classify the predicted-new site pairs by
// the same dual-order replay (sharing the caller's memo, metrics, and
// audit envelope). Audit races appended by the second classification
// pass are stamped Predicted, so the provenance trail distinguishes
// verdicts on observed instances from verdicts on proposed ones.
func runPredict(idx *hb.Index, races *hb.Report, opts classify.Options) *Predicted {
	reg := opts.Metrics
	sp := reg.StartSpan("predict")
	prep := predict.RunIndex(idx, predict.Options{Window: opts.PredictWindow, Metrics: reg})
	newRaces := prep.NewReport(races)
	sp.End()
	var auditBefore int
	if opts.Audit != nil {
		auditBefore = len(opts.Audit.Races)
	}
	sp = reg.StartSpan("classify-predicted")
	pcls := classify.Run(idx.Exec, newRaces, opts)
	sp.End()
	if opts.Audit != nil {
		for i := auditBefore; i < len(opts.Audit.Races); i++ {
			opts.Audit.Races[i].Predicted = true
		}
	}
	reg.Counter("predict.new_races").Add(uint64(len(newRaces.Races)))
	reg.Logger().Debug("prediction classified",
		"scenario", opts.Scenario, "seed", opts.Seed,
		"candidates", len(prep.Candidates), "new_races", len(newRaces.Races))
	return &Predicted{Report: prep, NewRaces: newRaces, Classification: pcls}
}

// analyzeRaceFreeFast produces the Result a full offline pass would
// return for a log the online detector certified race-free: an empty
// race report and an empty classification, with the observed data-access
// sites carried over for static cross-validation. Downstream renderers
// and merges treat it identically to an offline zero-race result.
func analyzeRaceFreeFast(log *trace.Log, opts classify.Options) (*Result, error) {
	reg := opts.Metrics
	sp := reg.StartSpan("fastpath")
	sites := make([]string, 0, len(log.Online.ObservedPCs))
	for _, pc := range log.Online.ObservedPCs {
		sites = append(sites, log.Prog.SiteOf(pc))
	}
	sp.End()
	reg.Counter("detect.online.fastpath").Inc()
	reg.Logger().Debug("online fast path",
		"scenario", opts.Scenario, "seed", opts.Seed,
		"observed_sites", len(sites))
	return &Result{
		Prog:           log.Prog,
		Log:            log,
		Races:          &hb.Report{},
		Classification: &classify.Classification{},
		ObservedSites:  sites,
	}, nil
}

// Quarantined records one batch item whose analysis failed — the
// degraded-but-labeled half of the pipeline's robustness contract. A
// quarantined item never aborts its batch: the run completes with
// partial results and the per-item error (a *trace.DecodeError,
// *trace.ValidateError, replay error, or recovered *sched.PanicError)
// lands here for the report's quarantine section.
type Quarantined struct {
	Index int    // position in the batch
	Label string // Options.Scenario (or file name) when set
	Err   error
}

func (q Quarantined) String() string {
	if q.Label != "" {
		return fmt.Sprintf("%s: %v", q.Label, q.Err)
	}
	return fmt.Sprintf("item %d: %v", q.Index, q.Err)
}

// AnalyzeLogs runs the offline half over a batch of logs, fanning the
// per-log work across jobs workers (jobs < 1 means GOMAXPROCS). optsFor
// supplies the classify options for the i-th log. Results come back in
// input order and are identical to analyzing each log serially.
//
// The batch never aborts: a log that fails to replay — or whose
// analysis panics — leaves a nil slot in the results and a Quarantined
// entry (ascending by index) describing the failure. len(results) is
// always len(logs).
//
// A non-nil reg receives the batch's metrics: each worker publishes
// through a fork of reg (which becomes that item's Options.Metrics), and
// forks are adopted in input order after the batch drains, so the merged
// replay/detect/classify ladder is identical at every worker count. The
// pool additionally publishes its sched.* metrics, every recovered panic
// increments sched.panics, and every quarantined item increments
// robust.quarantined. Nil is off.
func AnalyzeLogs(logs []*trace.Log, optsFor func(i int) classify.Options, jobs int, reg *obs.Registry) ([]*Result, []Quarantined) {
	results := make([]*Result, len(logs))
	errs := make([]error, len(logs))
	// One replay cache for the whole batch: fingerprints are content
	// hashes, so instances recurring across executions of the same
	// program (the suite records every scenario under several seeds) hit
	// the shared cache. Callers that set their own Memo — or NoMemo —
	// keep their setting.
	memo := classify.NewMemo()
	analyze := func(i int, reg *obs.Registry) {
		errs[i] = sched.Guard(reg, func() (err error) {
			o := optsFor(i)
			if o.Memo == nil && !o.NoMemo {
				o.Memo = memo
			}
			if reg != nil {
				o.Metrics = reg
			}
			results[i], err = AnalyzeLog(logs[i], o)
			return err
		})
	}
	jobs = sched.Normalize(jobs, sched.DefaultJobs())
	if jobs <= 1 || len(logs) < 2 {
		for i := range logs {
			analyze(i, reg)
		}
	} else {
		forks := make([]*obs.Registry, len(logs))
		pool := sched.NewPool(jobs, reg)
		for i := range logs {
			i := i
			forks[i] = reg.Fork()
			// Name the fork's timeline lane after the work item, so the
			// exported trace reads "exec01#1", not an anonymous worker.
			if label := optsFor(i).Scenario; label != "" {
				forks[i].LabelLane(label)
			}
			pool.Submit(func() { analyze(i, forks[i]) })
		}
		pool.Wait()
		for _, f := range forks {
			reg.Adopt(f)
		}
	}
	var quarantined []Quarantined
	for i, err := range errs {
		if err != nil {
			results[i] = nil // a panicked job may have left a partial result
			label := optsFor(i).Scenario
			quarantined = append(quarantined, Quarantined{Index: i, Label: label, Err: err})
			reg.Counter("robust.quarantined").Inc()
			reg.EmitLabeled("quarantine", label, uint64(i))
			reg.Logger().Warn("analysis quarantined",
				"item", i, "scenario", label, "err", err.Error())
		}
	}
	reg.Logger().Info("batch analyzed",
		"logs", len(logs), "jobs", jobs, "quarantined", len(quarantined))
	return results, quarantined
}

// Analyze is the whole pipeline: record prog under cfg in the recording
// mode oc picks (the zero value is a plain recording; with oc.Detect a
// race-free online verdict lets the analysis half skip
// replay+detect+classify entirely), then analyze the log. opts.Metrics,
// when set, receives the metrics of every layer.
func Analyze(prog *isa.Program, cfg machine.Config, oc record.OnlineConfig, opts classify.Options) (*Result, error) {
	log, mres, _, err := record.Run(prog, cfg, oc, opts.Metrics)
	if err != nil {
		return nil, err
	}
	if opts.Seed == 0 {
		opts.Seed = cfg.Seed
	}
	res, err := AnalyzeLog(log, opts)
	if err != nil {
		return nil, err
	}
	res.Machine = mres
	return res, nil
}
