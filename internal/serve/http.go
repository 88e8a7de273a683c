package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// uploadResponse is the JSON body of POST /v1/upload.
type uploadResponse struct {
	ID     string `json:"id"`
	Status Status `json:"status"`
	Err    string `json:"error,omitempty"`
}

// Handler mounts the service API:
//
//	POST /v1/upload          ingest one .rlog (202 accepted, 400
//	                         quarantined, 413 too large, 429 backpressure,
//	                         503 draining)
//	GET  /v1/jobs            every job, accept order, as JSON
//	GET  /v1/jobs/{id}       one job's state as JSON
//	GET  /v1/jobs/{id}/report  one finished job's verdict report as text
//	GET  /v1/report          the merged report over every finished job —
//	                         byte-identical to `racer analyze-dir` over
//	                         the same inputs
//	GET  /healthz            liveness (200 serving / 503 draining)
//	GET  /metrics            Prometheus exposition format
//	GET  /metrics.json       the same snapshot as JSON
//
// Every handler runs under a panic-recovery wrapper: a handler bug
// answers 500 and increments serve.http_panics instead of silently
// killing the connection's goroutine.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/upload", s.handleUpload)
	mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/report", s.handleJobReport)
	mux.HandleFunc("GET /v1/report", s.handleReport)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		fmt.Fprint(w, s.reg.Snapshot().Prometheus())
	})
	mux.HandleFunc("GET /metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, s.reg.Snapshot().JSON())
	})
	return s.recoverWrap(mux)
}

// recoverWrap isolates handler panics: net/http would recover them
// anyway, but invisibly and per-connection; here they are counted,
// logged, and answered with a 500 so the chaos sweep can assert the
// daemon survived with serve.http_panics == 0.
func (s *Server) recoverWrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if v := recover(); v != nil {
				s.cHTTPPanics.Inc()
				s.reg.Logger().Error("http handler panic",
					"path", r.URL.Path, "panic", fmt.Sprint(v))
				http.Error(w, "internal error", http.StatusInternalServerError)
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// handleUpload ingests one replay log. The failure ladder, in order:
// draining (503 + Retry-After), oversized body (413), corrupt payload
// (job quarantined, 400 with the job id — the verdict "this input is
// bad" is itself durable state), backpressure (429 + Retry-After,
// nothing journaled), persistence failure (500, job quarantined).
// Only after the payload and its accept record are durable does the
// 202 go out: an acknowledged upload survives kill -9.
func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	s.cUploads.Inc()
	if s.isDraining() {
		s.cRejected.Inc()
		w.Header().Set("Retry-After", "10")
		writeJSON(w, http.StatusServiceUnavailable, uploadResponse{Err: "service is draining"})
		return
	}
	tenant := sanitizeLabel(r.URL.Query().Get("tenant"))
	if tenant == "" {
		tenant = "default"
	}
	label := sanitizeLabel(r.URL.Query().Get("label"))
	if label == "" {
		label = "upload.rlog"
	}

	// The body spools to disk as it arrives, never into memory: a
	// -max-upload body costs one copy buffer, not its full size, and the
	// spool file is already the durable payload — persistAccept only
	// fsyncs and renames it into place. The content hash is computed on
	// the same pass through the TeeReader.
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes)
	spool, err := os.CreateTemp(filepath.Join(s.cfg.DataDir, "jobs"), "up-*.spool")
	if err != nil {
		s.cRejected.Inc()
		writeJSON(w, http.StatusInternalServerError, uploadResponse{Err: "spooling upload: " + err.Error()})
		return
	}
	spoolName := spool.Name()
	persisted := false // once renamed into jobs/, the spool must survive
	defer func() {
		if !persisted {
			spool.Close()
			os.Remove(spoolName)
		}
	}()
	hash := sha256.New()
	size, err := io.Copy(spool, io.TeeReader(body, hash))
	if err != nil {
		s.cRejected.Inc()
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge, uploadResponse{
				Err: fmt.Sprintf("upload exceeds %d bytes", s.cfg.MaxUploadBytes)})
			return
		}
		writeJSON(w, http.StatusBadRequest, uploadResponse{Err: "truncated upload: " + err.Error()})
		return
	}
	sha := hex.EncodeToString(hash.Sum(nil))
	s.cSpooled.Add(uint64(size))

	// Decode before taking a queue slot: a corrupt log's verdict is
	// already known (quarantine), so it never competes with real work.
	// Decoding straight from the spool keeps a v2 container's residency
	// at one segment, not the whole file; salvage mode matches
	// analyze-dir, so a v2 upload with some corrupt thread segments still
	// analyzes its healthy threads. sched.Guard turns a decoder panic
	// into the same typed-error path.
	var log *trace.Log
	var faults []trace.ThreadFault
	derr := sched.Guard(s.reg, func() error {
		var err error
		log, faults, err = core.DecodeLogFrom(spool, size, core.DecodeOptions{
			Salvage: true, Metrics: s.reg,
		})
		return err
	})
	if derr != nil {
		j := s.newJob(tenant, label, sha, 0)
		j.mu.Lock()
		j.status = StatusQuarantined
		j.errText = derr.Error()
		j.mu.Unlock()
		close(j.persisted)
		s.jnl.append(record{Op: "accept", ID: j.id, Tenant: tenant, Label: label, SHA: sha})
		s.jnl.append(record{Op: "done", ID: j.id, Status: string(StatusQuarantined), Err: j.errText})
		s.cQuarantined.Inc()
		s.reg.EmitLabeled("serve.job.quarantined", label, uint64(idNumber(j.id)))
		s.reg.Logger().Warn("upload quarantined", "id", j.id, "label", label, "err", derr.Error())
		writeJSON(w, http.StatusBadRequest, uploadResponse{ID: j.id, Status: StatusQuarantined, Err: j.errText})
		return
	}
	for _, tf := range faults {
		s.reg.Logger().Warn("upload thread segment salvaged",
			"label", label, "segment", tf.Segment, "tid", tf.TID, "err", tf.Err.Error())
	}

	j := s.newJob(tenant, label, sha, log.Seed)
	j.mu.Lock()
	j.log = log
	j.mu.Unlock()
	if err := s.queue.Push(tenant, j); err != nil {
		// Backpressure: the job was never journaled, so a retried upload
		// is a brand-new job — no ghost resumes on restart.
		s.dropJob(j)
		s.cRejected.Inc()
		s.cBackpressure.Inc()
		w.Header().Set("Retry-After", s.retryAfter())
		status := http.StatusTooManyRequests
		msg := "queue full, retry later"
		switch {
		case errors.Is(err, sched.ErrTenantFull):
			msg = fmt.Sprintf("tenant %q queue full, retry later", tenant)
		case errors.Is(err, sched.ErrQueueClosed):
			status, msg = http.StatusServiceUnavailable, "service is draining"
		}
		writeJSON(w, status, uploadResponse{Err: msg})
		return
	}
	s.gQueue.Set(float64(s.queue.Len()))
	if err := s.persistAccept(j, spool); err != nil {
		// The job may already be in a worker's hands; quarantine it so
		// the unpersisted work is an explicit verdict, not silent loss.
		j.mu.Lock()
		if j.status == StatusQueued || j.status == StatusRunning {
			j.status = StatusQuarantined
			j.errText = "persistence failed: " + err.Error()
		}
		j.mu.Unlock()
		close(j.persisted)
		s.cQuarantined.Inc()
		s.reg.Logger().Error("upload persistence failed", "id", j.id, "err", err.Error())
		writeJSON(w, http.StatusInternalServerError, uploadResponse{ID: j.id, Status: StatusQuarantined, Err: j.errText})
		return
	}
	persisted = true
	close(j.persisted)
	s.cAccepted.Inc()
	s.reg.EmitLabeled("serve.job.accepted", label, uint64(idNumber(j.id)))
	writeJSON(w, http.StatusAccepted, uploadResponse{ID: j.id, Status: StatusQueued})
}

// retryAfter estimates when a queue slot will free: roughly the backlog
// divided by the worker count, floored at one second and capped at a
// minute.
func (s *Server) retryAfter() string {
	workers := sched.Normalize(s.cfg.Jobs, sched.DefaultJobs())
	secs := 1 + s.queue.Len()/workers
	if secs > 60 {
		secs = 60
	}
	return strconv.Itoa(secs)
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

func (s *Server) handleJobs(w http.ResponseWriter, _ *http.Request) {
	views := s.sortedViews()
	out := make([]view, len(views))
	copy(out, views)
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) lookupJob(id string) (view, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return view{}, false
	}
	return j.view(), true
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	v, ok := s.lookupJob(r.PathValue("id"))
	if !ok {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, v)
}

func (s *Server) handleJobReport(w http.ResponseWriter, r *http.Request) {
	v, ok := s.lookupJob(r.PathValue("id"))
	if !ok {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	switch v.Status {
	case StatusDone:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, v.report)
	case StatusQuarantined:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusConflict)
		fmt.Fprintf(w, "quarantined: %s\n", v.Err)
	default:
		http.Error(w, "job not finished", http.StatusAccepted)
	}
}

// handleReport renders the merged verdict over every finished job.
// Jobs still queued or running make the report a snapshot; the response
// says so via the X-Racer-Pending header.
func (s *Server) handleReport(w http.ResponseWriter, _ *http.Request) {
	text, pending := s.MergedReport()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Header().Set("X-Racer-Pending", strconv.Itoa(pending))
	io.WriteString(w, text)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.isDraining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	io.WriteString(w, "ok\n")
}

// MergedReport renders the cross-job verdict exactly the way
// `racer analyze-dir` renders a directory: jobs sorted by label stand in
// for the sorted file listing, classifications of done jobs merge into
// one table, and quarantined jobs form the quarantine section with their
// position in that sorted order. Equal inputs therefore produce
// byte-identical text. It returns the report and the number of jobs not
// yet terminal (excluded from this snapshot).
//
// One restart-shaped caveat: jobs finished by an earlier process come
// back from the journal with their rendered per-job report but without
// the in-memory classification, so they merge into the count header and
// quarantine section but not the verdict table. /v1/jobs/{id}/report is
// exact for every job regardless of which process finished it.
func (s *Server) MergedReport() (text string, pending int) {
	views := s.sortedViews()
	var parts []*classify.Classification
	var quarantined []core.Quarantined
	analyzed := 0
	for i, v := range views {
		switch v.Status {
		case StatusDone:
			analyzed++
			if v.cls != nil {
				parts = append(parts, v.cls)
			}
		case StatusQuarantined:
			quarantined = append(quarantined, core.Quarantined{
				Index: i, Label: v.Label, Err: errors.New(v.Err),
			})
		default:
			pending++
		}
	}
	run := &workloads.SuiteRun{Merged: classify.Merge(parts...), Quarantined: quarantined}
	text = fmt.Sprintf("analyzed %d recorded executions\n", analyzed) + report.BatchReport{Run: run}.Render()
	return text, pending
}

// renderJobReport renders one job's verdict in the same shape as a
// single-file analyze-dir run, plus the verdict counts for the job's
// JSON view.
func renderJobReport(c *classify.Classification) (text string, benign, harmful int) {
	benign, harmful = c.CountByVerdict()
	return report.BatchReport{Run: &workloads.SuiteRun{Merged: c}}.Render(), benign, harmful
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}
