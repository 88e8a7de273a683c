// Package serve is the long-running analysis service: an HTTP daemon
// that ingests .rlog uploads, queues them through a bounded multi-tenant
// queue, analyzes each with the standard offline pipeline
// (core.AnalyzeLogs), and serves per-job verdicts, a merged report that
// is byte-identical to one-shot `racer analyze-dir` over the same
// inputs, and the Prometheus endpoint — all from one process engineered
// for failure first:
//
//   - Backpressure, not collapse: the ingest queue is bounded globally
//     and per tenant (sched.FairQueue); a full queue answers 429 with a
//     Retry-After hint, and round-robin dispatch keeps one noisy tenant
//     from starving the rest.
//   - Quarantine, not crashes: corrupt uploads become labeled
//     quarantined jobs (HTTP 400), analysis panics are isolated per job
//     (sched.Guard inside core.AnalyzeLogs), and a job that exceeds its
//     deadline is quarantined with a typed *DeadlineError while its
//     abandoned goroutine is counted, never joined — a poisoned log
//     costs one job, not the process.
//   - Crash safety, not amnesia: every accepted upload is persisted
//     (atomic tmp+rename) and journaled before the 202 goes out; every
//     verdict is journaled when produced. kill -9 at any point resumes
//     the un-verdicted jobs on restart and never re-analyzes a job that
//     already has a verdict, so restarts emit no duplicate and lose no
//     pending verdicts.
//   - Economics that survive restarts: the classification memo is
//     backed by the persistent memostore, so replay verdicts computed
//     for one process (or tenant) are hits for every later one.
//   - Graceful shutdown: Shutdown stops intake (503), abandons the
//     un-started backlog to the journal, drains in-flight jobs under a
//     deadline, and flushes the memo store and journal.
//
// docs/SERVICE.md documents the HTTP API, the persistence layout, and
// the failure-mode contract.
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/memostore"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Status is a job's lifecycle state.
type Status string

const (
	// StatusQueued: accepted and journaled, waiting for a worker (or,
	// after Shutdown, waiting for the next process to resume it).
	StatusQueued Status = "queued"
	// StatusRunning: a worker is analyzing the job.
	StatusRunning Status = "running"
	// StatusDone: analyzed; the verdict report is final and journaled.
	StatusDone Status = "done"
	// StatusQuarantined: the job failed — corrupt upload, analysis
	// panic, replay error, or deadline timeout — with a typed, labeled
	// error. Terminal and journaled, like StatusDone.
	StatusQuarantined Status = "quarantined"
)

// DeadlineError is the typed quarantine error for a job whose analysis
// exceeded the per-job deadline — the service-level analogue of a
// replay that fails instead of wedging: the worker moves on, the job
// lands in quarantine, and the stalled goroutine is accounted for on
// the serve.abandoned gauge until it unwinds.
type DeadlineError struct {
	JobID    string
	Deadline time.Duration
}

func (e *DeadlineError) Error() string {
	return fmt.Sprintf("serve: job %s exceeded its %v analysis deadline", e.JobID, e.Deadline)
}

// Config tunes the daemon. The zero value of every field but DataDir is
// usable; DataDir is required.
type Config struct {
	// DataDir roots the service's persistent state: journal.jsonl,
	// jobs/ (accepted payloads), and memo/ (the persistent replay
	// cache). One DataDir must be owned by one process at a time.
	DataDir string
	// Jobs is the analysis worker count (0 = GOMAXPROCS).
	Jobs int
	// QueueCap bounds the global ingest queue (0 = 64). A full queue
	// answers 429.
	QueueCap int
	// TenantCap bounds any one tenant's share of the queue
	// (0 = QueueCap/4, at least 1).
	TenantCap int
	// JobDeadline bounds one job's analysis; exceeding it quarantines
	// the job with a *DeadlineError (0 = 2 minutes; negative disables).
	JobDeadline time.Duration
	// MaxUploadBytes bounds one upload body (0 = 64 MiB). Larger
	// uploads answer 413.
	MaxUploadBytes int64
	// MemoMaxBytes caps the persistent memo store
	// (0 = memostore.DefaultMaxBytes; negative unbounded).
	MemoMaxBytes int64
	// DB, when set, suppresses races a developer marked benign.
	DB *classify.DB
	// Predict adds the prediction stage to every job's analysis:
	// feasible reorderings of the uploaded schedule are classified by
	// the same dual-order replay and appended to the job report, and
	// their verdicts count toward the job's benign/harmful totals.
	Predict bool
	// PredictWindow bounds the prediction solver's search distance
	// (0 = the predict package default).
	PredictWindow int
	// Registry receives the serve.*, memostore.*, and pipeline metrics
	// (nil is off, as everywhere in obs).
	Registry *obs.Registry
}

// job is one upload's full lifecycle. The mutex guards the mutable
// verdict fields; identity fields are immutable after creation.
type job struct {
	id     string
	tenant string
	label  string
	sha    string
	seed   int64

	// persisted closes once the accept record and payload are durable
	// (or the job is terminally quarantined at ingest); workers wait on
	// it so a verdict can never be journaled before its accept.
	persisted chan struct{}

	mu      sync.Mutex
	status  Status
	log     *trace.Log               // decoded input; nil once terminal
	cls     *classify.Classification // resident verdict (this process)
	report  string
	benign  int
	harmful int
	errText string
	resumed bool
}

// view is a consistent copy of a job's mutable state.
type view struct {
	ID      string `json:"id"`
	Tenant  string `json:"tenant"`
	Label   string `json:"label"`
	Status  Status `json:"status"`
	Benign  int    `json:"benign,omitempty"`
	Harmful int    `json:"harmful,omitempty"`
	Err     string `json:"error,omitempty"`
	Resumed bool   `json:"resumed,omitempty"`

	report string
	cls    *classify.Classification
}

func (j *job) view() view {
	j.mu.Lock()
	defer j.mu.Unlock()
	return view{
		ID: j.id, Tenant: j.tenant, Label: j.label, Status: j.status,
		Benign: j.benign, Harmful: j.harmful, Err: j.errText,
		Resumed: j.resumed, report: j.report, cls: j.cls,
	}
}

// testHookStallAnalysis, when set, runs at the top of every analysis
// goroutine — the lever the deadline and crash-recovery tests use to
// wedge a job deterministically. Access goes through the mutex: the
// tests swap the hook while analysis goroutines read it.
var (
	stallHookMu           sync.Mutex
	testHookStallAnalysis func(label string)
)

func stallHook() func(string) {
	stallHookMu.Lock()
	defer stallHookMu.Unlock()
	return testHookStallAnalysis
}

func setTestHookStallAnalysis(f func(string)) {
	stallHookMu.Lock()
	testHookStallAnalysis = f
	stallHookMu.Unlock()
}

// Server is the daemon. Build with New, start the workers with Start,
// mount Handler on an http.Server, and stop with Shutdown.
type Server struct {
	cfg   Config
	reg   *obs.Registry
	memo  *classify.Memo
	store *memostore.Store
	jnl   *journal
	queue *sched.FairQueue[*job]

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string // accept order
	nextID   int64
	draining bool
	resume   []*job // accepted-but-unverdicted jobs from the journal

	wg        sync.WaitGroup
	abandoned atomic.Int64

	cUploads, cAccepted, cRejected, cBackpressure *obs.Counter
	cDone, cQuarantined, cDeadline, cResumed      *obs.Counter
	cHTTPPanics, cJournalSkipped, cSpooled        *obs.Counter
	gQueue, gAbandoned, gDraining, gJobs          *obs.Gauge
}

// New opens (or reopens) a server over cfg.DataDir: it restores the job
// table from the journal, re-verifies and re-queues every accepted job
// without a verdict, sweeps payloads of finished jobs, and opens the
// persistent memo store. It does not start workers — call Start.
func New(cfg Config) (*Server, error) {
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("serve: Config.DataDir is required")
	}
	if cfg.QueueCap < 1 {
		cfg.QueueCap = 64
	}
	if cfg.JobDeadline == 0 {
		cfg.JobDeadline = 2 * time.Minute
	}
	if cfg.MaxUploadBytes <= 0 {
		cfg.MaxUploadBytes = 64 << 20
	}
	if err := os.MkdirAll(filepath.Join(cfg.DataDir, "jobs"), 0o755); err != nil {
		return nil, err
	}
	// Spool files only become payloads via rename in persistAccept; any
	// up-* left in jobs/ is an upload aborted by a crash. No handler is
	// live yet, so sweeping here can never race an in-flight upload.
	for _, pat := range []string{"up-*.spool", "up-*.tmp"} {
		stale, _ := filepath.Glob(filepath.Join(cfg.DataDir, "jobs", pat))
		for _, f := range stale {
			os.Remove(f)
		}
	}
	reg := cfg.Registry
	store, err := memostore.Open(filepath.Join(cfg.DataDir, "memo"), memostore.Options{
		MaxBytes: cfg.MemoMaxBytes, Metrics: reg,
	})
	if err != nil {
		return nil, err
	}
	jnl, recs, skipped, err := openJournal(filepath.Join(cfg.DataDir, "journal.jsonl"))
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:           cfg,
		reg:           reg,
		memo:          classify.NewMemoBacked(store),
		store:         store,
		jnl:           jnl,
		queue:         sched.NewFairQueue[*job](cfg.QueueCap, cfg.TenantCap),
		jobs:          map[string]*job{},
		cUploads:      reg.Counter("serve.uploads"),
		cAccepted:     reg.Counter("serve.accepted"),
		cRejected:     reg.Counter("serve.rejected"),
		cBackpressure: reg.Counter("serve.backpressure_429"),
		cDone:         reg.Counter("serve.jobs_done"),
		cQuarantined:  reg.Counter("serve.jobs_quarantined"),
		cDeadline:     reg.Counter("serve.deadline_timeouts"),
		cResumed:      reg.Counter("serve.jobs_resumed"),
		cHTTPPanics:   reg.Counter("serve.http_panics"),
		cJournalSkipped: reg.Counter(
			"serve.journal_skipped_lines"),
		cSpooled:   reg.Counter("serve.spooled_bytes"),
		gQueue:     reg.Gauge("serve.queue_depth"),
		gAbandoned: reg.Gauge("serve.abandoned_analyses"),
		gDraining:  reg.Gauge("serve.draining"),
		gJobs:      reg.Gauge("serve.jobs"),
	}
	if skipped > 0 {
		s.cJournalSkipped.Add(uint64(skipped))
		reg.Logger().Warn("journal: skipped undecodable lines", "lines", skipped)
	}
	s.restore(recs)
	return s, nil
}

// restore rebuilds the job table from journal records: jobs with a done
// record come back terminal (their verdicts are final — never re-run);
// accepts without a done record are re-verified against their stored
// payload and staged for re-analysis.
func (s *Server) restore(recs []record) {
	dones := map[string]record{}
	for _, r := range recs {
		if r.Op == "done" {
			dones[r.ID] = r
		}
	}
	for _, r := range recs {
		if r.Op != "accept" {
			continue
		}
		if _, dup := s.jobs[r.ID]; dup {
			continue // duplicated accept line; first wins
		}
		j := &job{
			id: r.ID, tenant: r.Tenant, label: r.Label, sha: r.SHA,
			seed: r.Seed, persisted: closedChan(), resumed: true,
		}
		if n := idNumber(r.ID); n >= s.nextID {
			s.nextID = n
		}
		if d, ok := dones[r.ID]; ok {
			j.status = StatusQuarantined
			if d.Status == string(StatusDone) {
				j.status = StatusDone
			}
			j.report, j.benign, j.harmful, j.errText = d.Report, d.Benign, d.Harmful, d.Err
			// Terminal jobs no longer need their payload.
			os.Remove(s.payloadPath(j.id))
		} else {
			s.restorePending(j)
		}
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
	}
	s.gJobs.Set(float64(len(s.jobs)))
}

// restorePending reloads an accepted-but-unverdicted job's payload and
// stages it for analysis; any failure — missing payload, digest
// mismatch, decode error — quarantines the job (journaled immediately,
// so the failure is not rediscovered on every restart). Like ingest,
// the payload is hashed and decoded by streaming, never read whole.
func (s *Server) restorePending(j *job) {
	var log *trace.Log
	var size int64
	f, err := os.Open(s.payloadPath(j.id))
	if err == nil {
		defer f.Close()
		hash := sha256.New()
		size, err = io.Copy(hash, f)
		if err == nil && j.sha != "" {
			if sum := hex.EncodeToString(hash.Sum(nil)); sum != j.sha {
				err = fmt.Errorf("serve: stored payload digest mismatch (journal %s, disk %s)", j.sha, sum)
			}
		}
	}
	if err == nil {
		gerr := sched.Guard(s.reg, func() error {
			var faults []trace.ThreadFault
			var derr error
			log, faults, derr = core.DecodeLogFrom(f, size, core.DecodeOptions{
				Salvage: true, Metrics: s.reg,
			})
			for _, tf := range faults {
				s.reg.Logger().Warn("resume: thread segment salvaged",
					"id", j.id, "segment", tf.Segment, "tid", tf.TID, "err", tf.Err.Error())
			}
			return derr
		})
		err = gerr
	}
	if err != nil {
		j.status = StatusQuarantined
		j.errText = err.Error()
		s.jnl.append(record{Op: "done", ID: j.id, Status: string(StatusQuarantined), Err: j.errText})
		s.cQuarantined.Inc()
		s.reg.Logger().Warn("resume: job quarantined", "id", j.id, "label", j.label, "err", err.Error())
		return
	}
	j.status = StatusQueued
	j.log = log
	s.resume = append(s.resume, j)
}

// Start launches the analysis workers and feeds resumed jobs back into
// the queue. It returns the number of jobs staged for resumption.
func (s *Server) Start() int {
	workers := sched.Normalize(s.cfg.Jobs, sched.DefaultJobs())
	s.reg.Gauge("serve.workers").Set(float64(workers))
	s.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go s.worker(w)
	}
	s.mu.Lock()
	resume := s.resume
	s.resume = nil
	s.mu.Unlock()
	if len(resume) > 0 {
		s.cResumed.Add(uint64(len(resume)))
		s.reg.Logger().Info("resuming journaled jobs", "jobs", len(resume))
		// The backlog can exceed the queue caps (they bound ingest, not
		// recovery), so a feeder retries until the drain makes room.
		go s.feedResumed(resume)
	}
	return len(resume)
}

// feedResumed pushes restored jobs into the queue, yielding to the
// drain whenever the queue is full. If the server shuts down first, the
// remaining jobs stay journaled for the next process.
func (s *Server) feedResumed(resume []*job) {
	for _, j := range resume {
		for {
			err := s.queue.Push(j.tenant, j)
			if err == nil {
				s.gQueue.Set(float64(s.queue.Len()))
				break
			}
			if err == sched.ErrQueueClosed {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

func (s *Server) worker(w int) {
	defer s.wg.Done()
	s.reg.Emit("serve.worker.start", uint64(w))
	defer s.reg.Emit("serve.worker.stop", uint64(w))
	for {
		j, ok := s.queue.Pop()
		if !ok {
			return
		}
		s.gQueue.Set(float64(s.queue.Len()))
		s.runJob(j)
	}
}

// jobOutcome is what one analysis attempt produced.
type jobOutcome struct {
	cls     *classify.Classification
	report  string
	benign  int
	harmful int
	err     error
}

// runJob drives one job to a terminal state, enforcing the per-job
// deadline. The analysis runs in its own goroutine so a wedged replay
// stalls that goroutine, not the worker: on timeout the job is
// quarantined with a typed *DeadlineError and the abandoned goroutine
// is tracked on serve.abandoned_analyses until it unwinds.
func (s *Server) runJob(j *job) {
	<-j.persisted
	j.mu.Lock()
	if j.status != StatusQueued {
		j.mu.Unlock()
		return // quarantined at ingest (persist failure) before a worker saw it
	}
	j.status = StatusRunning
	log := j.log
	j.mu.Unlock()
	s.reg.EmitLabeled("serve.job.start", j.label, uint64(idNumber(j.id)))

	outCh := make(chan jobOutcome, 1)
	go func() {
		if hook := stallHook(); hook != nil {
			hook(j.label)
		}
		outCh <- s.analyze(j, log)
	}()
	if s.cfg.JobDeadline < 0 {
		s.finish(j, <-outCh)
		return
	}
	t := time.NewTimer(s.cfg.JobDeadline)
	defer t.Stop()
	select {
	case out := <-outCh:
		s.finish(j, out)
	case <-t.C:
		s.cDeadline.Inc()
		// Gauge before verdict: anyone who observes the quarantined
		// terminal state must already see the abandoned goroutine.
		s.gAbandoned.Set(float64(s.abandoned.Add(1)))
		s.finish(j, jobOutcome{err: &DeadlineError{JobID: j.id, Deadline: s.cfg.JobDeadline}})
		go func() {
			<-outCh // the stalled analysis eventually unwinds; its result is dropped
			s.gAbandoned.Set(float64(s.abandoned.Add(-1)))
		}()
	}
}

// analyze runs the standard offline pipeline over one decoded log. A
// batch of one keeps core's quarantine semantics: panics and replay
// failures come back as a Quarantined entry, never as a crash.
func (s *Server) analyze(j *job, log *trace.Log) jobOutcome {
	results, quarantined := core.AnalyzeLogs([]*trace.Log{log}, func(int) classify.Options {
		return classify.Options{Scenario: j.label, Seed: log.Seed, DB: s.cfg.DB, Memo: s.memo,
			Predict: s.cfg.Predict, PredictWindow: s.cfg.PredictWindow}
	}, 1, s.reg)
	if len(quarantined) > 0 {
		return jobOutcome{err: quarantined[0].Err}
	}
	res := results[0]
	text, benign, harmful := renderJobReport(res.Classification)
	if res.Predicted != nil {
		text += "\n" + report.PredictedReport(res.Predicted)
		if res.Predicted.Classification != nil {
			pb, ph := res.Predicted.Classification.CountByVerdict()
			benign += pb
			harmful += ph
		}
	}
	return jobOutcome{cls: res.Classification, report: text, benign: benign, harmful: harmful}
}

// finish records a job's terminal state and journals the verdict. Only
// the first terminal transition wins: a late result arriving after a
// deadline quarantine is dropped.
func (s *Server) finish(j *job, out jobOutcome) {
	j.mu.Lock()
	if j.status != StatusRunning {
		j.mu.Unlock()
		return
	}
	rec := record{Op: "done", ID: j.id}
	if out.err != nil {
		j.status = StatusQuarantined
		j.errText = out.err.Error()
		rec.Status, rec.Err = string(StatusQuarantined), j.errText
	} else {
		j.status = StatusDone
		j.cls, j.report, j.benign, j.harmful = out.cls, out.report, out.benign, out.harmful
		rec.Status, rec.Benign, rec.Harmful, rec.Report = string(StatusDone), out.benign, out.harmful, out.report
	}
	j.log = nil // the decoded input is no longer needed
	j.mu.Unlock()

	if err := s.jnl.append(rec); err != nil {
		s.reg.Logger().Error("journal: verdict append failed", "id", j.id, "err", err.Error())
	}
	os.Remove(s.payloadPath(j.id)) // terminal jobs keep no payload
	if out.err != nil {
		s.cQuarantined.Inc()
		s.reg.EmitLabeled("serve.job.quarantined", j.label, uint64(idNumber(j.id)))
		s.reg.Logger().Warn("job quarantined", "id", j.id, "label", j.label, "err", j.errText)
	} else {
		s.cDone.Inc()
		s.reg.EmitLabeled("serve.job.done", j.label, uint64(idNumber(j.id)))
		s.reg.Logger().Info("job done",
			"id", j.id, "label", j.label, "benign", out.benign, "harmful", out.harmful)
	}
}

// Shutdown stops intake (new uploads answer 503), abandons the
// un-started backlog to the journal, waits for in-flight jobs until ctx
// expires, and flushes the memo store and journal. It always returns
// the server to a state a successor can resume from; the error reports
// only an expired drain deadline.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	s.mu.Unlock()
	s.gDraining.Set(1)
	left := s.queue.Drain()
	s.reg.Logger().Info("shutdown: intake stopped",
		"queued_left_for_resume", len(left))

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var drainErr error
	select {
	case <-done:
	case <-ctx.Done():
		drainErr = fmt.Errorf("serve: drain deadline expired with in-flight jobs; they will resume from the journal")
		s.reg.Logger().Warn("shutdown: drain deadline expired")
	}
	s.store.Close()
	s.jnl.Close()
	s.reg.Logger().Info("shutdown complete",
		"jobs_done", s.cDone.Value(), "jobs_quarantined", s.cQuarantined.Value())
	return drainErr
}

// newJob allocates the next job under the server lock.
func (s *Server) newJob(tenant, label, sha string, seed int64) *job {
	s.mu.Lock()
	s.nextID++
	j := &job{
		id:     fmt.Sprintf("j-%06d", s.nextID),
		tenant: tenant, label: label, sha: sha, seed: seed,
		status:    StatusQueued,
		persisted: make(chan struct{}),
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.gJobs.Set(float64(len(s.jobs)))
	s.mu.Unlock()
	return j
}

// dropJob removes a job that was never journaled (a 429'd upload).
func (s *Server) dropJob(j *job) {
	s.mu.Lock()
	delete(s.jobs, j.id)
	for i, id := range s.order {
		if id == j.id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	s.gJobs.Set(float64(len(s.jobs)))
	s.mu.Unlock()
}

func (s *Server) payloadPath(id string) string {
	return filepath.Join(s.cfg.DataDir, "jobs", id+".rlog")
}

// persistAccept makes an accepted upload durable: the already-spooled
// payload is fsynced and atomically renamed into jobs/, then the
// journal's accept record lands — only after all of it does the 202 go
// out. The upload body itself was streamed into the spool as it
// arrived, so nothing here is proportional to its size.
func (s *Server) persistAccept(j *job, spool *os.File) error {
	spoolName := spool.Name()
	serr := spool.Sync()
	cerr := spool.Close()
	if serr != nil || cerr != nil {
		os.Remove(spoolName)
		return fmt.Errorf("serve: persisting upload: %w", firstErr(serr, cerr))
	}
	if err := os.Rename(spoolName, s.payloadPath(j.id)); err != nil {
		os.Remove(spoolName)
		return err
	}
	return s.jnl.append(record{
		Op: "accept", ID: j.id, Tenant: j.tenant, Label: j.label, SHA: j.sha, Seed: j.seed,
	})
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// sortedViews snapshots every job sorted by (label, id) — the stable
// order the merged report and job listing use. Sorting by label mirrors
// analyze-dir's sorted directory listing, so equal inputs produce
// byte-identical reports; the id breaks ties between equal labels.
func (s *Server) sortedViews() []view {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	jobs := make([]*job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	views := make([]view, len(jobs))
	for i, j := range jobs {
		views[i] = j.view()
	}
	sort.Slice(views, func(a, b int) bool {
		if views[a].Label != views[b].Label {
			return views[a].Label < views[b].Label
		}
		return views[a].ID < views[b].ID
	})
	return views
}

// idNumber extracts the numeric part of a "j-000123" id (0 if foreign).
func idNumber(id string) int64 {
	var n int64
	if _, err := fmt.Sscanf(id, "j-%d", &n); err != nil {
		return 0
	}
	return n
}

func closedChan() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}

// sanitizeLabel reduces an upload's client-supplied name to something
// safe to put in reports and logs: base name only, printable ASCII,
// bounded length.
func sanitizeLabel(name string) string {
	name = filepath.Base(strings.TrimSpace(name))
	if name == "." || name == string(filepath.Separator) {
		name = ""
	}
	var b strings.Builder
	for _, r := range name {
		if r >= 0x20 && r < 0x7f {
			b.WriteRune(r)
		}
	}
	out := b.String()
	if len(out) > 128 {
		out = out[:128]
	}
	return out
}
