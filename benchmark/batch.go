package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	rr "repro"
	"repro/internal/machine"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/workloads"
)

type batchKind int

const (
	kindSuite batchKind = iota
	kindEngines
	kindLong
)

// Input sizes. suiteSeeds gives the ~36-execution pass the layer shares
// in README.md were sized on. A long pass runs browse under two seeds
// and service under one: with as many service runs as browse runs, the
// median verdict latency would sit on the gap between the fast service
// cluster and the slow browse cluster and jump between them run to run.
const (
	suiteSeeds   = 2
	browseSeeds  = 2
	serviceSeeds = 1
)

// input is one execution a pass records: a program and the machine
// configuration carrying its derived scheduler seed.
type input struct {
	label string // "exec05#1", the label analyze-dir and the suite use
	base  string // scenario name shared by the seeds of one program
	prog  *rr.Program
	cfg   rr.Config
}

// batchState is the suite, engines or long workload: every pass records
// all inputs across nproc workers, optionally round-trips them through
// v2 containers, analyzes the batch with AnalyzeLogs, merges, and
// renders the analyze-dir report.
type batchState struct {
	jobs    int
	inputs  []input
	online  bool // record with the online detector (long)
	wire    bool // v2 encode + decode between record and analysis
	predict bool
	static  bool

	truth     *truth
	exact     bool     // every suite scenario runs: verdicts must match ExpectGroup exactly
	warm      *passOut // the warm-up pass, checked with the run
	reference string   // rendered report of the warm-up pass
	logBits   float64
	logInstr  float64
}

func setupBatch(c *config, kind batchKind) (state, error) {
	b := &batchState{jobs: c.nproc, truth: newTruth()}
	switch kind {
	case kindSuite, kindEngines:
		b.wire, b.exact = true, !c.min
		b.predict, b.static = kind == kindEngines, kind == kindEngines
		scen := workloads.Scenarios()
		if c.min {
			scen = scen[:2]
		}
		for i, sc := range scen {
			prog, err := rr.Assemble(workloads.ProgName, sc.Source())
			if err != nil {
				return nil, fmt.Errorf("%s: %w", sc.Name, err)
			}
			for k := 0; k < suiteSeeds; k++ {
				s := sc
				s.Seed = derive(c.seed, streamSuite, i, k)
				b.inputs = append(b.inputs, input{
					label: fmt.Sprintf("%s#%d", sc.Name, k), base: sc.Name, prog: prog, cfg: s.Config(),
				})
			}
		}
	case kindLong:
		b.online = true
		for i, sc := range []workloads.Scenario{workloads.BrowseScenario(), workloads.ServiceScenario()} {
			prog, err := rr.Assemble(workloads.ProgName, sc.Source())
			if err != nil {
				return nil, fmt.Errorf("%s: %w", sc.Name, err)
			}
			seeds := []int{browseSeeds, serviceSeeds}[i]
			if c.min {
				seeds = 1
			}
			for k := 0; k < seeds; k++ {
				s := sc
				s.Seed = derive(c.seed, streamLong, i, k)
				b.inputs = append(b.inputs, input{
					label: fmt.Sprintf("%s#%d", sc.Name, k), base: sc.Name, prog: prog, cfg: s.Config(),
				})
			}
		}
	}
	return b, nil
}

func (b *batchState) close() {}

// passOut is what one pass produced.
type passOut struct {
	executions int
	failed     int
	wrong      int
	problems   []string
	latencies  []float64 // ms, one per execution
	wireBytes  int
	instr      uint64
	newRaces   int
	text       string
}

func (b *batchState) warmup() error {
	b.warm = b.pass(nil, nil, 0)
	b.reference = b.warm.text
	// Log size per instruction is a property of the inputs: measure the
	// v2 containers of this pass's recordings once (long keeps its logs
	// in memory, so it is encoded here and never in a timed pass).
	var bits float64
	var instr uint64
	for _, in := range b.inputs {
		var log *rr.Log
		var err error
		if b.online {
			log, _, err = rr.RecordOnline(in.prog, in.cfg, rr.OnlineConfig{Detect: true})
		} else {
			log, err = rr.Record(in.prog, in.cfg)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", in.label, err)
		}
		var buf bytes.Buffer
		if err := rr.WriteLogFormat(&buf, log, rr.FormatV2); err != nil {
			return fmt.Errorf("%s: %w", in.label, err)
		}
		bits += float64(8 * buf.Len())
		instr += log.Instructions()
	}
	b.logBits, b.logInstr = bits, float64(instr)
	return nil
}

func (b *batchState) measure(until time.Time, tr *tracer, reg *rr.Metrics) (*phase, error) {
	ph := &phase{}
	ph.logBits, ph.logInstr = b.logBits, b.logInstr
	ph.begin()
	for pass := 1; pass == 1 || time.Now().Before(until); pass++ {
		steal0, _ := cpuTicks()
		t0 := time.Now()
		out := b.pass(tr, reg, pass)
		wall := time.Since(t0)
		steal1, _ := cpuTicks()
		ph.add(out)
		ph.passes = append(ph.passes, passSample{
			steal: steal1 - steal0, executions: out.executions - out.failed, wall: wall, latencies: out.latencies,
		})
	}
	ph.end()
	return ph, nil
}

func (b *batchState) final(ph *phase) (string, error) {
	ph.add(b.warm)
	return fmt.Sprintf("%d executions per pass (%s), %.0f instructions, %.0f v2 bytes per pass",
		len(b.inputs), b.describe(), b.logInstr, b.logBits/8), nil
}

func (b *batchState) describe() string {
	var parts []string
	if b.online {
		parts = append(parts, "online detection")
	}
	if b.wire {
		parts = append(parts, "v2 round trip")
	}
	if b.predict {
		parts = append(parts, "predict")
	}
	if b.static {
		parts = append(parts, "static")
	}
	parts = append(parts, fmt.Sprintf("jobs=%d", b.jobs))
	return strings.Join(parts, ", ")
}

// pass runs the workload once. Failures and wrong verdicts are counted
// in the output, never returned: the run reports them as incorrect.
func (b *batchState) pass(tr *tracer, reg *rr.Metrics, id int) *passOut {
	n := len(b.inputs)
	out := &passOut{executions: n}
	root := tr.start("pass", -1, id)
	starts := make([]time.Time, n)
	logs := make([]*rr.Log, n)
	errs := make([]error, n)
	var containers [][]byte
	if b.wire {
		containers = make([][]byte, n)
	}
	fanOut(n, b.jobs, func(i int) {
		in := b.inputs[i]
		starts[i] = time.Now()
		sp := tr.start("record", root, i)
		if b.online {
			logs[i], _, errs[i] = rr.RecordOnlineInstrumented(in.prog, in.cfg, rr.OnlineConfig{Detect: true}, reg.Fork())
		} else {
			logs[i], errs[i] = rr.RecordInstrumented(in.prog, in.cfg, reg.Fork())
		}
		tr.end(sp)
		if errs[i] != nil || !b.wire {
			return
		}
		sp = tr.start("encode", root, i)
		var buf bytes.Buffer
		errs[i] = rr.WriteLogFormat(&buf, logs[i], rr.FormatV2)
		containers[i] = buf.Bytes()
		tr.end(sp)
	})
	if b.wire {
		fanOut(n, b.jobs, func(i int) {
			if errs[i] != nil {
				return
			}
			sp := tr.start("decode", root, i)
			log, faults, err := rr.DecodeLogOpts(containers[i], rr.DecodeOptions{Salvage: true, Metrics: reg.Fork()})
			if err == nil {
				err = rr.ValidateLog(log)
			}
			if err == nil && len(faults) > 0 {
				err = fmt.Errorf("decode salvaged %d thread segments", len(faults))
			}
			tr.end(sp)
			logs[i], errs[i] = log, err
		})
		for _, c := range containers {
			out.wireBytes += len(c)
		}
	}

	// Failed recordings or decodes leave the batch, like quarantined
	// analyze-dir inputs.
	var batch []*rr.Log
	var idx []int
	for i, err := range errs {
		if err != nil {
			out.failed++
			out.problems = append(out.problems, fmt.Sprintf("%s: %v", b.inputs[i].label, err))
			continue
		}
		batch = append(batch, logs[i])
		idx = append(idx, i)
		out.instr += logs[i].Instructions()
	}
	optsFor := func(i int) rr.Options {
		return rr.Options{Scenario: b.inputs[idx[i]].label, Seed: batch[i].Seed, Predict: b.predict}
	}
	sp := tr.start("analyze", root, -1)
	var results []*rr.Result
	var quarantined []rr.Quarantined
	if tr == nil {
		results, quarantined = rr.AnalyzeLogsInstrumented(batch, optsFor, b.jobs, reg)
	} else {
		results, quarantined = analyzeTraced(batch, optsFor, b.jobs, tr, sp)
	}
	tr.end(sp)
	for _, q := range quarantined {
		out.failed++
		out.problems = append(out.problems, "quarantined "+q.String())
	}

	var suiteStatic *workloads.SuiteStatic
	if b.static {
		suiteStatic = b.crossValidate(results, idx, tr, reg, root)
	}

	sp = tr.start("merge", root, -1)
	var parts []*rr.Classification
	var labels []string
	var healthy []*rr.Result
	for i, res := range results {
		if res == nil {
			continue
		}
		parts = append(parts, res.Classification)
		labels = append(labels, b.inputs[idx[i]].label)
		healthy = append(healthy, res)
	}
	merged := rr.MergeClassifications(parts...)
	var suitePredict *workloads.SuitePredict
	if b.predict {
		suitePredict = workloads.BuildSuitePredict(labels, healthy)
	}
	tr.end(sp)

	sp = tr.start("render", root, -1)
	out.text = renderReport(merged, suitePredict, suiteStatic, len(parts))
	tr.end(sp)
	end := time.Now()
	tr.end(root)

	for i := range starts {
		out.latencies = append(out.latencies, float64(end.Sub(starts[i]))/1e6)
	}
	out.wrong, out.problems = b.check(merged, suitePredict, suiteStatic, out)
	if b.reference != "" && out.text != b.reference {
		out.problems = append(out.problems, "report differs from the warm-up pass")
	}
	if suitePredict != nil && suitePredict.Merged != nil {
		out.newRaces = len(suitePredict.Merged.Races)
	}
	return out
}

// check counts verdicts that disagree with the templates' ground truth
// and collects the other output problems of one pass.
func (b *batchState) check(merged *rr.Classification, sp *workloads.SuitePredict, ss *workloads.SuiteStatic, out *passOut) (int, []string) {
	problems := out.problems
	wrong, detail := b.truth.wrong(merged, b.exact)
	problems = append(problems, detail...)
	if len(merged.Races) == 0 {
		problems = append(problems, "no races found")
	}
	if sp != nil && sp.Merged != nil {
		w, d := b.truth.wrong(sp.Merged, b.exact)
		wrong += w
		problems = append(problems, d...)
	}
	if ss != nil && ss.Missed > 0 {
		problems = append(problems, fmt.Sprintf("static analysis missed %d dynamic races", ss.Missed))
	}
	return wrong, problems
}

// crossValidate is the engines workload's static stage: each base
// scenario's program is analyzed once and joined against the dynamic
// (and predicted) evidence of all its seeds, as analyze-dir -static does.
func (b *batchState) crossValidate(results []*rr.Result, idx []int, tr *tracer, reg *rr.Metrics, root int32) *workloads.SuiteStatic {
	byBase := map[string][]*rr.Result{}
	var order []string
	for i, res := range results {
		if res == nil {
			continue
		}
		base := b.inputs[idx[i]].base
		if _, ok := byBase[base]; !ok {
			order = append(order, base)
		}
		byBase[base] = append(byBase[base], res)
	}
	scen := make([]workloads.ScenarioStatic, len(order))
	fanOut(len(order), b.jobs, func(i int) {
		group := byBase[order[i]]
		sp := tr.start("static", root, i)
		fork := reg.Fork()
		rep := rr.AnalyzeStaticInstrumented(group[0].Prog, fork)
		cross := rr.CrossValidateStaticInstrumented(rep, fork, group...)
		tr.end(sp)
		scen[i] = workloads.ScenarioStatic{Name: order[i], Report: rep, Cross: cross}
	})
	suite := &workloads.SuiteStatic{Scenarios: scen}
	for _, sc := range scen {
		suite.Matched += sc.Cross.Matched
		suite.Refuted += sc.Cross.Refuted
		suite.Unmatched += sc.Cross.Unmatched
		suite.Missed += len(sc.Cross.Missed)
		if sc.Cross.HasPredicted {
			suite.HasPredicted = true
			suite.PredMatched += sc.Cross.PredMatched
			suite.PredRefuted += sc.Cross.PredRefuted
			suite.PredUnmatched += sc.Cross.PredUnmatched
			suite.PredMissed += len(sc.Cross.PredMissed)
		}
	}
	return suite
}

// renderReport renders the merged verdicts the way racer analyze-dir
// prints them.
func renderReport(merged *rr.Classification, sp *workloads.SuitePredict, ss *workloads.SuiteStatic, analyzed int) string {
	var s strings.Builder
	fmt.Fprintf(&s, "analyzed %d recorded executions\n", analyzed)
	s.WriteString(report.Summary(merged, report.SuiteTruth))
	s.WriteString("\n")
	s.WriteString(report.BuildTable1(merged, report.SuiteTruth).Render())
	if sp != nil {
		s.WriteString("\n")
		s.WriteString(report.PredictedSection{Suite: sp}.Render())
	}
	if ss != nil {
		s.WriteString("\n")
		s.WriteString(report.StaticSection{Suite: ss}.Render())
	}
	return s.String()
}

// analyzeTraced is AnalyzeLogs with a span around each layer call: the
// same shared memo, one sched pool task per log, and the same per-log
// stage order as the library's batch analysis. Its rendered report must
// equal the untraced pass's, which the pass checks.
func analyzeTraced(logs []*rr.Log, optsFor func(int) rr.Options, jobs int, tr *tracer, parent int32) ([]*rr.Result, []rr.Quarantined) {
	memo := rr.NewMemo()
	results := make([]*rr.Result, len(logs))
	errs := make([]error, len(logs))
	pool := sched.NewPool(jobs, nil)
	for i := range logs {
		i := i
		pool.Submit(func() {
			errs[i] = sched.Guard(nil, func() (err error) {
				o := optsFor(i)
				o.Memo = memo
				results[i], err = analyzeOne(logs[i], o, tr, parent, i)
				return err
			})
		})
	}
	pool.Wait()
	var quarantined []rr.Quarantined
	for i, err := range errs {
		if err != nil {
			results[i] = nil
			quarantined = append(quarantined, rr.Quarantined{Index: i, Label: optsFor(i).Scenario, Err: err})
		}
	}
	return results, quarantined
}

// analyzeOne is the offline pipeline over one log, one span per layer.
func analyzeOne(log *rr.Log, o rr.Options, tr *tracer, parent int32, item int) (*rr.Result, error) {
	ex := tr.start("exec", parent, item)
	defer tr.end(ex)
	if log.Online != nil && log.Online.RaceFree && !log.Online.Stopped && !o.Predict {
		sp := tr.start("fastpath", ex, item)
		defer tr.end(sp)
		return rr.AnalyzeLog(log, o)
	}
	sp := tr.start("replay", ex, item)
	exec, err := rr.Replay(log)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.start("detect", ex, item)
	races := rr.DetectRaces(exec)
	tr.end(sp)
	sp = tr.start("classify", ex, item)
	cls := rr.Classify(exec, races, o)
	tr.end(sp)
	res := &rr.Result{Prog: log.Prog, Log: log, Exec: exec, Races: races, Classification: cls}
	if o.Predict {
		sp = tr.start("predict", ex, item)
		prep := rr.PredictRaces(exec, rr.PredictOptions{Window: o.PredictWindow})
		newRaces := prep.NewReport(races)
		tr.end(sp)
		sp = tr.start("classify.predicted", ex, item)
		pcls := rr.Classify(exec, newRaces, o)
		tr.end(sp)
		res.Predicted = &rr.Predicted{Report: prep, NewRaces: newRaces, Classification: pcls}
	}
	return res, nil
}

// calibration accumulates alternating bare machine runs and recordings
// of the same programs and configurations.
type calibration struct {
	rounds int
	instr  uint64
	pairs  []calPair
}

// calPair is one bare run and the recording after it, with the host
// CPU steal ticks seen across both.
type calPair struct {
	steal     uint64
	bare, rec time.Duration
}

// slowdown is the paper's §5.1 recording overhead: record time over
// bare machine time, over the least-stolen pairs.
func (c calibration) slowdown() float64 {
	cut := stealCutoff(len(c.pairs), func(i int) uint64 { return c.pairs[i].steal })
	var bare, rec time.Duration
	for _, p := range c.pairs {
		if p.steal <= cut {
			bare += p.bare
			rec += p.rec
		}
	}
	if bare == 0 {
		return 0
	}
	return float64(rec) / float64(bare)
}

func (b *batchState) calibrate(until time.Time, tr *tracer) calibration {
	return calibrate(b.inputs, b.online, until, tr)
}

// calibrate runs rounds over inputs until the deadline (at least one).
// Each round runs every input on a bare machine, then records it, so
// both sides see the same cache and scheduler conditions.
func calibrate(inputs []input, online bool, until time.Time, tr *tracer) calibration {
	var c calibration
	for c.rounds == 0 || time.Now().Before(until) {
		for i, in := range inputs {
			steal0, _ := cpuTicks()
			sp := tr.start("machine", -1, i)
			t0 := time.Now()
			cfg := in.cfg
			cfg.Observer = nil
			m, err := machine.New(in.prog, cfg)
			if err == nil {
				c.instr += m.Run().TotalSteps
			}
			t1 := time.Now()
			tr.end(sp)
			sp = tr.start("calibrate.record", -1, i)
			// Errors are not checked here: the measured passes record the
			// same inputs and count every failure.
			if online {
				rr.RecordOnline(in.prog, in.cfg, rr.OnlineConfig{Detect: true})
			} else {
				rr.Record(in.prog, in.cfg)
			}
			t2 := time.Now()
			tr.end(sp)
			steal1, _ := cpuTicks()
			c.pairs = append(c.pairs, calPair{steal: steal1 - steal0, bare: t1.Sub(t0), rec: t2.Sub(t1)})
		}
		c.rounds++
	}
	return c
}

// fanOut runs f(0..n-1) on up to jobs goroutines and waits for them.
func fanOut(n, jobs int, f func(i int)) {
	jobs = min(jobs, n)
	if jobs <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(jobs)
	for w := 0; w < jobs; w++ {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				f(i)
			}
		}()
	}
	wg.Wait()
}

// phase aggregates one measured stretch of passes or uploads.
type phase struct {
	attempted, executions, failed, wrong int
	problems                             []string
	latencies                            []float64
	wall                                 time.Duration
	allocBytes                           uint64
	gcCycles                             uint32
	gcPauseNs                            uint64
	logBits, logInstr                    float64
	wireBytes                            int
	instr                                uint64
	newRaces                             int
	uploads                              bool // serve: one execution is one upload
	passes                               []passSample

	stealShare float64 // host CPU steal during the stretch

	t0             time.Time
	ms0            runtime.MemStats
	steal0, ticks0 uint64
}

func (p *phase) begin() {
	runtime.ReadMemStats(&p.ms0)
	p.steal0, p.ticks0 = cpuTicks()
	p.t0 = time.Now()
}

func (p *phase) end() {
	p.wall = time.Since(p.t0)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.allocBytes = ms.TotalAlloc - p.ms0.TotalAlloc
	p.gcCycles = ms.NumGC - p.ms0.NumGC
	p.gcPauseNs = ms.PauseTotalNs - p.ms0.PauseTotalNs
	if steal, ticks := cpuTicks(); ticks > p.ticks0 {
		p.stealShare = float64(steal-p.steal0) / float64(ticks-p.ticks0)
	}
}

func (p *phase) add(o *passOut) {
	p.attempted += o.executions
	p.executions += o.executions - o.failed
	p.failed += o.failed
	p.wrong = max(p.wrong, o.wrong)
	p.problems = appendUnique(p.problems, o.problems...)
	p.latencies = append(p.latencies, o.latencies...)
	p.wireBytes += o.wireBytes
	p.instr += o.instr
	p.newRaces += o.newRaces
}

// checks combines the checks of the stretches of one run.
func checks(phases ...*phase) *phase {
	out := &phase{}
	for _, p := range phases {
		out.attempted += p.attempted
		out.failed += p.failed
		out.wrong = max(out.wrong, p.wrong)
		out.problems = appendUnique(out.problems, p.problems...)
	}
	return out
}

// passSample is one pass: its output and the host CPU steal ticks seen
// while it ran.
type passSample struct {
	steal      uint64
	executions int
	wall       time.Duration
	latencies  []float64
}

// stealCutoff is the first quartile of n samples' steal ticks. Samples
// at or under it are the least disturbed by the hypervisor: on a shared
// virtual machine, steal comes and goes over seconds to minutes and
// slows wall-clock numbers up to threefold without any code change. In
// a quiet stretch the cutoff is 0 and keeps every steal-free sample.
func stealCutoff(n int, steal func(i int) uint64) uint64 {
	if n == 0 {
		return 0
	}
	v := make([]uint64, n)
	for i := range v {
		v[i] = steal(i)
	}
	sort.Slice(v, func(a, b int) bool { return v[a] < v[b] })
	return v[(n-1)/4]
}

// steady returns the passes at or under the steal cutoff; a phase
// without passes (serve) has none.
func (p *phase) steady() []passSample {
	cut := stealCutoff(len(p.passes), func(i int) uint64 { return p.passes[i].steal })
	var out []passSample
	for _, s := range p.passes {
		if s.steal <= cut {
			out = append(out, s)
		}
	}
	return out
}

// rate is executions per wall second, over the least-stolen passes.
func (p *phase) rate() float64 {
	ex, wall := p.executions, p.wall
	if st := p.steady(); len(st) > 0 {
		ex, wall = 0, 0
		for _, s := range st {
			ex += s.executions
			wall += s.wall
		}
	}
	return float64(ex) / wall.Seconds()
}

// verdictLatencies are the latencies behind verdict_p50_ms and
// verdict_p99_ms, sorted: those of the least-stolen passes.
func (p *phase) verdictLatencies() []float64 {
	lat := p.latencies
	if st := p.steady(); len(st) > 0 {
		lat = nil
		for _, s := range st {
			lat = append(lat, s.latencies...)
		}
	}
	lat = append([]float64(nil), lat...)
	sort.Float64s(lat)
	return lat
}

func (p *phase) logBitsPerInstr() float64 {
	if p.logInstr == 0 {
		return 0
	}
	return p.logBits / p.logInstr
}

// appendUnique appends the strings of src not yet in dst, keeping at
// most 20: enough to show what failed without flooding the log.
func appendUnique(dst []string, src ...string) []string {
	for _, s := range src {
		dup := false
		for _, d := range dst {
			if d == s {
				dup = true
				break
			}
		}
		if !dup && len(dst) < 20 {
			dst = append(dst, s)
		}
	}
	return dst
}
