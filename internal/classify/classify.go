// Package classify turns per-instance dual-order replay outcomes into the
// paper's race classification (§4.3, §5.2).
//
// Every dynamic instance of a race is analyzed by the virtual processor;
// a unique (static) race is classified No-State-Change only if every one
// of its instances is No-State-Change, State-Change if any instance is,
// and Replay-Failure otherwise. No-State-Change races are *potentially
// benign* and everything else is *potentially harmful* — the set handed
// to developers for triage.
//
// The package also carries the triage workflow the paper describes (§1):
// a persistent race database in which a developer can mark a race benign
// after manual inspection, suppressing it from future reports.
package classify

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"repro/internal/audit"
	"repro/internal/hb"
	"repro/internal/obs"
	"repro/internal/replay"
	"repro/internal/sched"
	"repro/internal/vproc"
)

// Group is the Table 1 row a race falls into.
type Group int

const (
	GroupNoStateChange Group = iota
	GroupStateChange
	GroupReplayFailure
)

func (g Group) String() string {
	switch g {
	case GroupNoStateChange:
		return "no-state-change"
	case GroupStateChange:
		return "state-change"
	case GroupReplayFailure:
		return "replay-failure"
	}
	return fmt.Sprintf("group(%d)", int(g))
}

// Verdict is the automatic classification handed to developers.
type Verdict int

const (
	PotentiallyBenign Verdict = iota
	PotentiallyHarmful
)

func (v Verdict) String() string {
	if v == PotentiallyBenign {
		return "potentially-benign"
	}
	return "potentially-harmful"
}

// InstanceSample is one analyzed instance kept for the race report: it
// pins down the exact replay coordinates a developer needs to reproduce
// both orders (§4.4).
type InstanceSample struct {
	Scenario     string
	Seed         int64
	Outcome      vproc.Outcome
	FailReason   string
	Diffs        []vproc.Diff
	Addr         uint64
	TIDA, TIDB   int
	RegionA      int // Region.Global in the scenario's replay
	RegionB      int
	IdxA, IdxB   uint64
	PCA, PCB     int
	OrigValA     uint64 // value observed at the first access in the recording
	OrigValB     uint64
	FirstIsWrite bool
	SecondWrite  bool
}

// RaceResult is the classification of one unique static race, accumulated
// over every instance in every execution analyzed so far.
type RaceResult struct {
	Sites hb.SitePair

	Total int // instances analyzed
	NSC   int // No-State-Change instances
	SC    int // State-Change instances
	RF    int // Replay-Failure instances

	Group      Group
	Verdict    Verdict
	Suppressed bool // developer marked this race benign in the DB

	Samples []InstanceSample // representative instances (bounded)
}

// Exposing counts the instances that exposed a difference (SC + RF) — the
// quantity Figure 4/5 plot next to the totals.
func (r *RaceResult) Exposing() int { return r.SC + r.RF }

// Confidence grades a potentially-benign verdict by how many instances
// support it — §4.3: "the greater the number of instances studied, the
// greater is the confidence that a data race is benign". Potentially
// harmful verdicts are evidence-positive (one exposing instance proves
// the possibility), so they always grade "confirmed".
func (r *RaceResult) Confidence() string {
	if r.Verdict == PotentiallyHarmful {
		return "confirmed"
	}
	switch {
	case r.Total >= 10:
		return "high"
	case r.Total >= 3:
		return "medium"
	default:
		return "low"
	}
}

func (r *RaceResult) recompute() {
	switch {
	case r.SC > 0:
		r.Group = GroupStateChange
	case r.RF > 0:
		r.Group = GroupReplayFailure
	default:
		r.Group = GroupNoStateChange
	}
	if r.Group == GroupNoStateChange {
		r.Verdict = PotentiallyBenign
	} else {
		r.Verdict = PotentiallyHarmful
	}
}

// Classification is the aggregated result over one or more executions.
type Classification struct {
	Races []*RaceResult
}

// Race finds a race by sites, or nil.
func (c *Classification) Race(sites hb.SitePair) *RaceResult {
	for _, r := range c.Races {
		if r.Sites == sites {
			return r
		}
	}
	return nil
}

// TotalInstances sums analyzed instances over all races.
func (c *Classification) TotalInstances() int {
	n := 0
	for _, r := range c.Races {
		n += r.Total
	}
	return n
}

// CountByVerdict returns (potentially benign, potentially harmful),
// excluding suppressed races from the harmful count (they are no longer
// reported to developers).
func (c *Classification) CountByVerdict() (benign, harmful int) {
	for _, r := range c.Races {
		if r.Verdict == PotentiallyBenign {
			benign++
		} else if !r.Suppressed {
			harmful++
		}
	}
	return
}

// Options tunes classification.
type Options struct {
	// Scenario labels samples for reproduction (typically the workload
	// scenario name).
	Scenario string
	// Seed is recorded into samples alongside the scenario.
	Seed int64
	// MaxInstancesPerRace bounds how many instances of one race are
	// analyzed per execution (0 = all). The paper analyzes every instance;
	// the bound exists for exploratory runs.
	//
	// Sampling bias: clipping keeps a *prefix* of the schedule-ordered
	// instance list, so the analyzed sample over-represents instances
	// from early regions of the execution. Late-execution behavior (a
	// race that only exposes a state change after the heap has grown,
	// say) can be missed entirely under a low bound — the verdict then
	// rests on early instances only. Clipping is surfaced on the
	// classify.instances.clipped counter (dropped instances).
	MaxInstancesPerRace int
	// MaxSamplesPerRace bounds retained samples (default 4).
	MaxSamplesPerRace int
	// DB, when set, suppresses races a developer marked benign.
	DB *DB
	// UseOracle enables the §4.2.1 extension: a versioned-memory oracle
	// lets the virtual processor continue through reads the two regions'
	// live-ins never captured, instead of declaring a replay failure.
	UseOracle bool
	// Parallel runs dual-order instance replays on this many goroutines,
	// drained from one flattened (race, instance) work list per
	// execution so races with few instances share the pool with the big
	// ones. Instances are independent — each virtual processor only
	// reads the replayed execution — so the result is bit-identical to
	// the serial run; this is purely a wall-clock lever for the offline
	// analysis (the paper's 280x stage).
	//
	// The value is normalized by sched.Normalize, the same validation
	// the CLI -jobs flags use: anything below 1 (zero, negatives) means
	// serial, and values above the core count are honored rather than
	// silently clamped.
	Parallel int
	// Metrics, when set, receives the classify.* counters (instances by
	// outcome, races by verdict, replay-failure causes) and is forwarded
	// to the virtual processor for its vproc.* counters.
	Metrics *obs.Registry
	// NoMemo disables the dual-order replay cache. Memoization is on by
	// default (the zero Options memoizes within the Run): equal live-in
	// fingerprints are guaranteed equal results, so the cache never
	// changes the classification — NoMemo exists for measurement and for
	// the memo-on vs memo-off equivalence tests.
	NoMemo bool
	// Memo, when set, is the replay cache to use (and share): callers
	// analyzing several executions of the same program pass one Memo so
	// recurring instances hit across executions (core.AnalyzeLogs wires
	// one per batch). Nil means Run builds a private per-Run cache,
	// unless NoMemo is set.
	Memo *Memo
	// Predict enables the prediction stage after classification: a
	// lockset + weak-HB + window-feasibility pass over the replayed
	// execution proposes racing pairs the recorded interleaving never
	// exhibited, and the ones at new site pairs are classified by a
	// second dual-order pass sharing this Options (and its Memo). The
	// classify package only carries the flag; core.AnalyzeLog acts on
	// it — putting it here lets every existing per-log options closure
	// (suite, analyze-dir, serve) thread it through unchanged.
	Predict bool
	// PredictWindow bounds the region-schedule distance the prediction
	// solver searches (0 = the predict package default).
	PredictWindow int
	// Audit, when set, receives this execution's verdict provenance:
	// Run appends one audit.Race per classified race, in report order,
	// each instance carrying its live-in fingerprint and both replay
	// orders' outcomes. The caller owns the execution envelope
	// (scenario, seed, log hash) and the file-level CacheHit
	// derivation (audit.File.DeriveCacheHits) — Run leaves CacheHit
	// false, because the runtime hit pattern depends on worker
	// interleaving while the audit trail must not.
	Audit *audit.Execution
}

// Run analyzes every instance of every race in report and returns the
// per-race classification for this single execution. The dual-order
// replays of every race are flattened into one work list and drained by
// a single pool of opts.Parallel workers; results are aggregated by
// (race, instance) index, so the classification is bit-identical at any
// worker count.
func Run(exec *replay.Execution, report *hb.Report, opts Options) *Classification {
	if opts.MaxSamplesPerRace <= 0 {
		opts.MaxSamplesPerRace = 4
	}
	var vopts vproc.Options
	if opts.UseOracle {
		vopts.Oracle = replay.BuildVersionedMemory(exec)
	}
	vopts.Metrics = opts.Metrics

	// Clip each race's instance list, then flatten every (race, instance)
	// pair into one shared work list: races with few instances ride the
	// same pool as the big ones instead of paying a per-race pool
	// spin-up and getting no speedup at all.
	instances := make([][]hb.Instance, len(report.Races))
	results := make([][]vproc.Result, len(report.Races))
	type workItem struct{ race, inst int }
	var work []workItem
	var clipped uint64
	for ri, race := range report.Races {
		insts := race.Instances
		if opts.MaxInstancesPerRace > 0 && len(insts) > opts.MaxInstancesPerRace {
			clipped += uint64(len(insts) - opts.MaxInstancesPerRace)
			insts = insts[:opts.MaxInstancesPerRace]
		}
		instances[ri] = insts
		results[ri] = make([]vproc.Result, len(insts))
		for ii := range insts {
			work = append(work, workItem{ri, ii})
		}
	}
	if clipped > 0 {
		// Dropped instances, counted only when the bound actually bit:
		// the counter's presence is the signal that the sampling bias
		// documented on MaxInstancesPerRace is in play.
		opts.Metrics.Counter("classify.instances.clipped").Add(clipped)
	}

	// The replay cache: on by default, shared when the caller passed one.
	// A hit skips both region replays and replays the vproc.* counter
	// effects instead, so every metric except classify.memo.* is
	// identical with and without the cache.
	memo := opts.Memo
	if memo == nil && !opts.NoMemo {
		memo = NewMemo()
	}
	// The audit trail needs fingerprints even with the memo off, so the
	// fingerprinter exists whenever either consumer does.
	var fper *vproc.Fingerprinter
	var salt uint64
	if memo != nil || opts.Audit != nil {
		fper = vproc.NewFingerprinter(exec)
		if opts.UseOracle {
			if opts.Audit != nil {
				// Audited fingerprints land in a file that must be
				// byte-identical across runs, so the oracle salt is
				// derived from the execution's identity instead of the
				// process-local counter. Still constant within the Run
				// and distinct across scenarios, which is all the memo
				// requires of it.
				h := sha256.Sum256(binary.LittleEndian.AppendUint64(
					[]byte(opts.Scenario+"\x00"), uint64(opts.Seed)))
				salt = binary.LittleEndian.Uint64(h[:8])
			} else {
				salt = oracleSalts.Add(1)
			}
		}
	}
	var fps [][]vproc.Fingerprint
	if opts.Audit != nil {
		fps = make([][]vproc.Fingerprint, len(report.Races))
		for ri := range instances {
			fps[ri] = make([]vproc.Fingerprint, len(instances[ri]))
		}
	}
	cHits := opts.Metrics.Counter("classify.memo.hits")
	cMisses := opts.Metrics.Counter("classify.memo.misses")

	workers := sched.Normalize(opts.Parallel, 1)
	// Worker-local virtual-processor scratch: all items of worker w run
	// sequentially on it, so slot w is never shared.
	scratches := make([]vproc.Scratch, max(workers, 1))
	sched.ForEachWorker(workers, len(work), func(wk, k int) {
		w := work[k]
		// Panic isolation per instance: a dual-order replay that panics
		// (a corrupt log can trip invariants the decoder cannot check)
		// records a ReplayFailure outcome instead of crashing the batch.
		err := sched.Guard(opts.Metrics, func() error {
			pair := racePair(instances[w.race][w.inst])
			var fp vproc.Fingerprint
			if fper != nil {
				fp = fper.Instance(pair, vopts, salt)
				if fps != nil {
					fps[w.race][w.inst] = fp
				}
			}
			if memo != nil {
				res, hit := memo.Do(fp, func() vproc.Result {
					cMisses.Inc()
					opts.Metrics.Emit("classify.memo.miss", uint64(w.race))
					return vproc.AnalyzeScratch(exec, pair, vopts, &scratches[wk])
				})
				if hit {
					cHits.Inc()
					opts.Metrics.Emit("classify.memo.hit", uint64(w.race))
					countCachedReplay(opts.Metrics, res)
				}
				results[w.race][w.inst] = res
				return nil
			}
			results[w.race][w.inst] = vproc.AnalyzeScratch(exec, pair, vopts, &scratches[wk])
			return nil
		})
		if err != nil {
			reason := fmt.Sprintf("panic during dual-order replay: %v", err)
			// The panic interrupted the dual replay, so neither order has
			// an individual outcome; the audit trail records the panic for
			// both rather than claiming either order ran clean.
			results[w.race][w.inst] = vproc.Result{
				Outcome:    vproc.ReplayFailure,
				FailReason: reason,
				OrigFail:   reason,
				AltFail:    reason,
			}
		}
	})
	if memo != nil {
		opts.Metrics.Gauge("classify.memo.bytes").Set(float64(memo.Bytes()))
	}

	cls := &Classification{}
	var auditRaces map[*RaceResult]audit.Race
	if opts.Audit != nil {
		auditRaces = make(map[*RaceResult]audit.Race, len(report.Races))
	}
	for ri, race := range report.Races {
		rr := &RaceResult{Sites: race.Sites}
		kinds := make(map[vproc.Outcome]int)
		for ii, inst := range instances[ri] {
			res := results[ri][ii]
			rr.Total++
			switch res.Outcome {
			case vproc.NoStateChange:
				rr.NSC++
			case vproc.StateChange:
				rr.SC++
			case vproc.ReplayFailure:
				rr.RF++
				countFailureCause(opts.Metrics, res.FailReason)
			}
			rr.keepSample(kinds, opts.MaxSamplesPerRace, InstanceSample{
				Scenario:     opts.Scenario,
				Seed:         opts.Seed,
				Outcome:      res.Outcome,
				FailReason:   res.FailReason,
				Diffs:        res.Diffs,
				Addr:         inst.Addr,
				TIDA:         inst.RegionA.TID,
				TIDB:         inst.RegionB.TID,
				RegionA:      inst.RegionA.Global,
				RegionB:      inst.RegionB.Global,
				IdxA:         inst.First.Idx,
				IdxB:         inst.Second.Idx,
				PCA:          inst.First.PC,
				PCB:          inst.Second.PC,
				OrigValA:     inst.First.Val,
				OrigValB:     inst.Second.Val,
				FirstIsWrite: inst.First.IsWrite,
				SecondWrite:  inst.Second.IsWrite,
			})
		}
		rr.recompute()
		if opts.DB != nil && opts.DB.IsMarkedBenign(rr.Sites) {
			rr.Suppressed = true
		}
		if opts.Audit != nil {
			ar := audit.Race{
				SiteA:      rr.Sites.A,
				SiteB:      rr.Sites.B,
				Verdict:    rr.Verdict.String(),
				Group:      rr.Group.String(),
				Suppressed: rr.Suppressed,
			}
			for ii := range instances[ri] {
				res := results[ri][ii]
				orig, alt := res.OrigFail, res.AltFail
				if orig == "" {
					orig = "ok"
				}
				if alt == "" {
					alt = "ok"
				}
				ar.Instances = append(ar.Instances, audit.Instance{
					Fingerprint: hex.EncodeToString(fps[ri][ii][:]),
					Outcome:     res.Outcome.String(),
					OrigOrder:   orig,
					AltOrder:    alt,
					Diffs:       len(res.Diffs),
				})
			}
			auditRaces[rr] = ar
		}
		cls.Races = append(cls.Races, rr)
	}
	sortRaces(cls.Races)
	if opts.Audit != nil {
		// Report order: the same site-pair sort the classification (and
		// every renderer downstream of it) uses.
		for _, rr := range cls.Races {
			opts.Audit.Races = append(opts.Audit.Races, auditRaces[rr])
		}
	}
	publishMetrics(opts.Metrics, cls)
	benign, harmful := cls.CountByVerdict()
	opts.Metrics.Logger().Debug("execution classified",
		"scenario", opts.Scenario, "seed", opts.Seed,
		"races", len(cls.Races), "instances", cls.TotalInstances(),
		"potentially_benign", benign, "potentially_harmful", harmful)
	return cls
}

// keepSample retains a bounded, representative sample set: while there
// is room under max every instance is kept (which also captures the
// first of each outcome kind), and once full an instance of an outcome
// kind not yet represented evicts the newest sample of a kind holding
// duplicates. kinds counts retained samples per outcome and belongs to
// the caller's per-race aggregation loop.
func (r *RaceResult) keepSample(kinds map[vproc.Outcome]int, max int, s InstanceSample) {
	if len(r.Samples) < max {
		r.Samples = append(r.Samples, s)
		kinds[s.Outcome]++
		return
	}
	if kinds[s.Outcome] > 0 {
		return
	}
	for i := len(r.Samples) - 1; i >= 0; i-- {
		k := r.Samples[i].Outcome
		if kinds[k] > 1 {
			kinds[k]--
			copy(r.Samples[i:], r.Samples[i+1:])
			r.Samples[len(r.Samples)-1] = s
			kinds[s.Outcome]++
			return
		}
	}
}

// publishMetrics flushes one execution's classification tallies (no-op
// without a registry). Instance counters accumulate across executions;
// the race counters count per-execution classifications, so a race seen
// in N executions contributes N (Merge re-derives the final verdict).
func publishMetrics(reg *obs.Registry, cls *Classification) {
	if reg == nil {
		return
	}
	reg.Counter("classify.executions").Inc()
	for _, r := range cls.Races {
		reg.Counter("classify.races").Inc()
		reg.Counter("classify.instances_total").Add(uint64(r.Total))
		reg.Counter("classify.instances_nsc").Add(uint64(r.NSC))
		reg.Counter("classify.instances_sc").Add(uint64(r.SC))
		reg.Counter("classify.instances_rf").Add(uint64(r.RF))
		if r.Verdict == PotentiallyBenign {
			reg.Counter("classify.races_potentially_benign").Inc()
		} else {
			reg.Counter("classify.races_potentially_harmful").Inc()
		}
		if r.Suppressed {
			reg.Counter("classify.races_suppressed").Inc()
		}
	}
}

// countFailureCause buckets a vproc replay-failure reason into a coarse
// cause counter, keyed by the stable message fragments runOrder emits.
// The order prefix ("original order: " / "alternative order: ") is
// ignored; unknown messages land in the "other" bucket.
func countFailureCause(reg *obs.Registry, reason string) {
	if reg == nil {
		return
	}
	cause := "other"
	for _, c := range []struct{ frag, name string }{
		{"control flow diverged", "control_flow_divergence"},
		{"diverged out of the region", "region_divergence"},
		{"control flow left the program", "left_program"},
		{"step budget exhausted", "budget_exhausted"},
		{"not captured in live-in memory", "livein_miss"},
		{"unreplayable syscall", "unreplayable_syscall"},
		{"fault during replay", "fault"},
	} {
		if strings.Contains(reason, c.frag) {
			cause = c.name
			break
		}
	}
	reg.Counter("classify.replay_failure_" + cause).Inc()
}

// racePair maps a detector instance to the virtual processor's replay
// coordinates.
func racePair(inst hb.Instance) vproc.RacePair {
	return vproc.RacePair{
		RegionA: inst.RegionA, RegionB: inst.RegionB,
		IdxA: inst.First.Idx, IdxB: inst.Second.Idx,
		PCA: inst.First.PC, PCB: inst.Second.PC,
		Addr: inst.Addr,
	}
}

// Merge folds other executions' classifications into dst, accumulating
// instance counts per unique race and re-deriving groups and verdicts —
// this is how one race observed across the paper's 18 executions ends up
// with a single classification.
func Merge(parts ...*Classification) *Classification {
	bySites := make(map[hb.SitePair]*RaceResult)
	out := &Classification{}
	for _, part := range parts {
		if part == nil {
			continue
		}
		for _, r := range part.Races {
			dst := bySites[r.Sites]
			if dst == nil {
				dst = &RaceResult{Sites: r.Sites, Suppressed: r.Suppressed}
				bySites[r.Sites] = dst
				out.Races = append(out.Races, dst)
			}
			dst.Total += r.Total
			dst.NSC += r.NSC
			dst.SC += r.SC
			dst.RF += r.RF
			dst.Suppressed = dst.Suppressed || r.Suppressed
			for _, s := range r.Samples {
				if len(dst.Samples) < 8 {
					dst.Samples = append(dst.Samples, s)
				}
			}
		}
	}
	for _, r := range out.Races {
		r.recompute()
	}
	sortRaces(out.Races)
	return out
}

func sortRaces(races []*RaceResult) {
	sort.Slice(races, func(i, j int) bool { return races[i].Sites.Less(races[j].Sites) })
}
