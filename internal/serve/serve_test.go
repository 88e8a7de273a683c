package serve

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	recorder "repro/internal/record"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// recordPayload records a scenario and returns its compressed .rlog
// container — what a client would upload.
func recordPayload(t *testing.T, name string) []byte {
	t.Helper()
	s, err := workloads.FindScenario(name)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := s.Program()
	if err != nil {
		t.Fatal(err)
	}
	log, _, _, err := recorder.Run(prog, s.Config(), recorder.OnlineConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return trace.Compress(trace.Marshal(log))
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.DataDir == "" {
		cfg.DataDir = t.TempDir()
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// upload posts body as an .rlog and returns the response (body drained
// into the returned buffer).
func upload(t *testing.T, ts *httptest.Server, tenant, label string, body []byte) (*http.Response, string) {
	t.Helper()
	url := fmt.Sprintf("%s/v1/upload?tenant=%s&label=%s", ts.URL, tenant, label)
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp, buf.String()
}

// jobID pulls the id out of an upload response body.
func jobID(t *testing.T, body string) string {
	t.Helper()
	i := strings.Index(body, `"id":"`)
	if i < 0 {
		t.Fatalf("no job id in response %q", body)
	}
	rest := body[i+len(`"id":"`):]
	return rest[:strings.IndexByte(rest, '"')]
}

// waitTerminal polls until the job reaches a terminal state.
func waitTerminal(t *testing.T, s *Server, id string) view {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if v, ok := s.lookupJob(id); ok && (v.Status == StatusDone || v.Status == StatusQuarantined) {
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	v, _ := s.lookupJob(id)
	t.Fatalf("job %s not terminal after 30s (status %s)", id, v.Status)
	return view{}
}

func get(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp, buf.String()
}

func TestUploadAnalyzeReport(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	payload := recordPayload(t, "exec01")
	resp, body := upload(t, ts, "teamA", "exec01-0.rlog", payload)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("upload status = %d, body %s", resp.StatusCode, body)
	}
	id := jobID(t, body)
	v := waitTerminal(t, srv, id)
	if v.Status != StatusDone {
		t.Fatalf("job status = %s (err %q)", v.Status, v.Err)
	}
	if v.report == "" {
		t.Fatal("done job has empty report")
	}
	resp, text := get(t, ts.URL+"/v1/jobs/"+id+"/report")
	if resp.StatusCode != http.StatusOK || text != v.report {
		t.Fatalf("job report status %d, text mismatch = %v", resp.StatusCode, text != v.report)
	}
	resp, merged := get(t, ts.URL+"/v1/report")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("merged report status = %d", resp.StatusCode)
	}
	if !strings.HasPrefix(merged, "analyzed 1 recorded executions\n") {
		t.Fatalf("merged report header wrong:\n%s", merged)
	}
	if resp.Header.Get("X-Racer-Pending") != "0" {
		t.Fatalf("pending = %q, want 0", resp.Header.Get("X-Racer-Pending"))
	}
	resp, list := get(t, ts.URL+"/v1/jobs")
	if resp.StatusCode != http.StatusOK || !strings.Contains(list, id) {
		t.Fatalf("jobs listing missing %s: %s", id, list)
	}
}

func TestCorruptUploadQuarantined(t *testing.T) {
	reg := obs.NewRegistry()
	srv, ts := newTestServer(t, Config{Registry: reg})
	resp, body := upload(t, ts, "teamA", "bad.rlog", []byte("not a replay log at all"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("corrupt upload status = %d, want 400 (body %s)", resp.StatusCode, body)
	}
	id := jobID(t, body)
	v, ok := srv.lookupJob(id)
	if !ok || v.Status != StatusQuarantined || v.Err == "" {
		t.Fatalf("corrupt job = %+v", v)
	}
	// The quarantine is part of the report, exactly like analyze-dir.
	_, merged := get(t, ts.URL+"/v1/report")
	if !strings.Contains(merged, "quarantined: 1 input(s) excluded from the analysis") ||
		!strings.Contains(merged, "bad.rlog") {
		t.Fatalf("merged report missing quarantine section:\n%s", merged)
	}
	if resp, _ := get(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after corrupt upload = %d", resp.StatusCode)
	}
	if got := reg.Snapshot().Counters["serve.jobs_quarantined"]; got != 1 {
		t.Fatalf("serve.jobs_quarantined = %d, want 1", got)
	}
	// A quarantined job's report endpoint reports the quarantine, not 200.
	if resp, _ := get(t, ts.URL+"/v1/jobs/"+id+"/report"); resp.StatusCode != http.StatusConflict {
		t.Fatalf("quarantined job report status = %d, want 409", resp.StatusCode)
	}
}

func TestUploadTooLarge(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxUploadBytes: 128})
	resp, _ := upload(t, ts, "t", "big.rlog", bytes.Repeat([]byte{0xab}, 4096))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized upload status = %d, want 413", resp.StatusCode)
	}
}

// TestBackpressure saturates a tiny queue behind stalled workers and
// asserts the ingest contract: per-tenant overflow answers 429 with a
// Retry-After hint while other tenants still get slots, and global
// overflow answers 429 for everyone. Nothing rejected is journaled, so
// a restart resurrects none of it.
func TestBackpressure(t *testing.T) {
	block := make(chan struct{})
	setTestHookStallAnalysis(func(string) { <-block })

	reg := obs.NewRegistry()
	srv, ts := newTestServer(t, Config{Jobs: 1, QueueCap: 4, TenantCap: 2, Registry: reg})
	// Release the stalled worker and let every accepted job finish before
	// cleanup tears the data dir down under the analysis goroutines.
	defer func() {
		setTestHookStallAnalysis(nil)
		close(block)
		for _, v := range srv.sortedViews() {
			waitTerminal(t, srv, v.ID)
		}
	}()
	payload := recordPayload(t, "exec01")

	// First upload: popped by the (stalled) worker, queue empty again.
	resp, _ := upload(t, ts, "loud", "l0.rlog", payload)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("upload 0 = %d", resp.StatusCode)
	}
	waitQueueEmpty(t, srv)
	// Fill tenant "loud" to its cap of 2.
	for i := 1; i <= 2; i++ {
		if resp, body := upload(t, ts, "loud", fmt.Sprintf("l%d.rlog", i), payload); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("upload %d = %d (%s)", i, resp.StatusCode, body)
		}
	}
	// Tenant overflow: 429 + Retry-After, and the noisy tenant's rejection
	// must not take the quiet tenant's slot.
	resp, body := upload(t, ts, "loud", "l3.rlog", payload)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("tenant overflow = %d (%s), want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if !strings.Contains(body, "tenant") {
		t.Fatalf("tenant overflow body %q does not name the tenant cap", body)
	}
	if resp, _ := upload(t, ts, "quiet", "q0.rlog", payload); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("quiet tenant rejected while loud tenant was at cap: %d", resp.StatusCode)
	}
	if resp, _ := upload(t, ts, "quiet", "q1.rlog", payload); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("quiet tenant second upload = %d", resp.StatusCode)
	}
	// Global overflow: queue holds 4, a third tenant gets 429 too.
	resp, _ = upload(t, ts, "other", "o0.rlog", payload)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("global overflow = %d, want 429", resp.StatusCode)
	}
	if got := reg.Snapshot().Counters["serve.backpressure_429"]; got != 2 {
		t.Fatalf("serve.backpressure_429 = %d, want 2", got)
	}
	// Rejected uploads were never journaled: the journal holds exactly
	// the five accepts.
	accepts := countJournalOps(t, srv.cfg.DataDir, "accept")
	if accepts != 5 {
		t.Fatalf("journal accepts = %d, want 5", accepts)
	}
}

func waitQueueEmpty(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if s.queue.Len() == 0 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("queue never drained to the stalled worker")
}

func countJournalOps(t *testing.T, dataDir, op string) int {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dataDir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	return strings.Count(string(data), fmt.Sprintf(`"op":%q`, op))
}

// TestDeadlineQuarantine wedges one job past the per-job deadline and
// asserts it is quarantined with the typed *DeadlineError while the
// worker moves on to other work.
func TestDeadlineQuarantine(t *testing.T) {
	release := make(chan struct{})
	setTestHookStallAnalysis(func(label string) {
		if label == "stall.rlog" {
			<-release
		}
	})
	defer func() { setTestHookStallAnalysis(nil) }()

	reg := obs.NewRegistry()
	srv, ts := newTestServer(t, Config{Jobs: 1, JobDeadline: 500 * time.Millisecond, Registry: reg})
	payload := recordPayload(t, "exec01")
	_, body := upload(t, ts, "t", "stall.rlog", payload)
	id := jobID(t, body)
	v := waitTerminal(t, srv, id)
	if v.Status != StatusQuarantined {
		t.Fatalf("stalled job status = %s, want quarantined", v.Status)
	}
	wantErr := (&DeadlineError{JobID: id, Deadline: 500 * time.Millisecond}).Error()
	if v.Err != wantErr {
		t.Fatalf("stalled job err = %q, want %q", v.Err, wantErr)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["serve.deadline_timeouts"]; got != 1 {
		t.Fatalf("serve.deadline_timeouts = %d, want 1", got)
	}
	if got := snap.Gauges["serve.abandoned_analyses"]; got != 1 {
		t.Fatalf("serve.abandoned_analyses = %v, want 1 while the goroutine is wedged", got)
	}
	// The worker is free: a healthy job completes while the stalled
	// goroutine is still wedged.
	_, body = upload(t, ts, "t", "ok.rlog", payload)
	if v := waitTerminal(t, srv, jobID(t, body)); v.Status != StatusDone {
		t.Fatalf("follow-up job = %s (err %q)", v.Status, v.Err)
	}
	// Releasing the wedged goroutine drains the abandoned gauge and its
	// late result is dropped: the job stays quarantined.
	close(release)
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if reg.Snapshot().Gauges["serve.abandoned_analyses"] == 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := reg.Snapshot().Gauges["serve.abandoned_analyses"]; got != 0 {
		t.Fatalf("serve.abandoned_analyses = %v after release, want 0", got)
	}
	if v, _ := srv.lookupJob(id); v.Status != StatusQuarantined {
		t.Fatalf("late result overwrote the deadline quarantine: %s", v.Status)
	}
}

// TestCrashRecoveryResume is the kill-mid-batch contract: jobs accepted
// (202) but unfinished when the process dies are resumed by the next
// process over the same data dir, finish with verdicts byte-identical
// to an uninterrupted run, and no job gets two verdicts.
func TestCrashRecoveryResume(t *testing.T) {
	payloads := map[string][]byte{
		"exec01-0.rlog": recordPayload(t, "exec01"),
		"exec02-0.rlog": recordPayload(t, "exec02"),
		"exec03-0.rlog": recordPayload(t, "exec03"),
	}
	labels := []string{"exec01-0.rlog", "exec02-0.rlog", "exec03-0.rlog"}

	// Reference: an uninterrupted server over the same inputs.
	want := map[string]string{}
	{
		ref, ts := newTestServer(t, Config{})
		for _, label := range labels {
			_, body := upload(t, ts, "t", label, payloads[label])
			v := waitTerminal(t, ref, jobID(t, body))
			if v.Status != StatusDone {
				t.Fatalf("reference %s = %s (%q)", label, v.Status, v.Err)
			}
			want[label] = v.report
		}
	}

	// Server A accepts the batch but every analysis wedges; then it
	// "dies" with the journal holding accepts and no dones.
	dataDir := t.TempDir()
	block := make(chan struct{})
	setTestHookStallAnalysis(func(string) { <-block })
	a, ts := newTestServer(t, Config{DataDir: dataDir, Jobs: 2})
	for _, label := range labels {
		if resp, body := upload(t, ts, "t", label, payloads[label]); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("upload %s = %d (%s)", label, resp.StatusCode, body)
		}
	}
	// Simulated kill: no Shutdown, no drain — just cut A off from its
	// durable state so its wedged goroutines can write nothing more.
	a.queue.Drain()
	a.jnl.Close()
	a.store.Close()
	setTestHookStallAnalysis(nil)

	// Server B over the same data dir resumes and finishes the batch.
	b, err := New(Config{DataDir: dataDir, Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if resumed := b.Start(); resumed != 3 {
		t.Fatalf("resumed = %d jobs, want 3", resumed)
	}
	for _, v := range b.sortedViews() {
		got := waitTerminal(t, b, v.ID)
		if got.Status != StatusDone {
			t.Fatalf("resumed %s = %s (%q)", got.Label, got.Status, got.Err)
		}
		if !got.Resumed {
			t.Errorf("job %s not marked resumed", got.ID)
		}
		if got.report != want[got.Label] {
			t.Errorf("resumed %s report differs from uninterrupted run:\n--- resumed\n%s\n--- uninterrupted\n%s",
				got.Label, got.report, want[got.Label])
		}
	}
	// Exactly one verdict per job: 3 accepts, 3 dones, no duplicates.
	if n := countJournalOps(t, dataDir, "accept"); n != 3 {
		t.Fatalf("journal accepts = %d, want 3", n)
	}
	if n := countJournalOps(t, dataDir, "done"); n != 3 {
		t.Fatalf("journal dones = %d, want 3", n)
	}

	// A third process over the same dir must re-analyze nothing.
	c, err := New(Config{DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	if resumed := c.Start(); resumed != 0 {
		t.Fatalf("finished batch resumed %d jobs, want 0", resumed)
	}
	for _, v := range c.sortedViews() {
		if v.Status != StatusDone || v.report != want[v.Label] {
			t.Fatalf("restored %s: status %s, report match %v", v.Label, v.Status, v.report == want[v.Label])
		}
	}
	if n := countJournalOps(t, dataDir, "done"); n != 3 {
		t.Fatalf("journal dones after restart = %d, want 3 (no duplicate verdicts)", n)
	}
	// A's wedged analysis goroutines stay parked on block for the rest of
	// the test binary's life — releasing them here would race their memo
	// writes against the TempDir cleanup.
	_ = block
}

// TestWarmPersistentMemo: verdicts computed by one process are memo
// hits for the next process over the same data dir.
func TestWarmPersistentMemo(t *testing.T) {
	dataDir := t.TempDir()
	payload := recordPayload(t, "exec01")

	regA := obs.NewRegistry()
	a, ts := newTestServer(t, Config{DataDir: dataDir, Registry: regA})
	_, body := upload(t, ts, "t", "exec01-0.rlog", payload)
	if v := waitTerminal(t, a, jobID(t, body)); v.Status != StatusDone {
		t.Fatalf("first run = %s (%q)", v.Status, v.Err)
	}
	if regA.Snapshot().Counters["memostore.hits"] != 0 {
		t.Fatal("cold store reported hits")
	}
	if err := a.Shutdown(testCtx(t)); err != nil {
		t.Fatal(err)
	}

	regB := obs.NewRegistry()
	b, ts2 := newTestServer(t, Config{DataDir: dataDir, Registry: regB})
	_, body = upload(t, ts2, "t", "exec01-1.rlog", payload)
	if v := waitTerminal(t, b, jobID(t, body)); v.Status != StatusDone {
		t.Fatalf("warm run = %s (%q)", v.Status, v.Err)
	}
	snap := regB.Snapshot()
	if hits := snap.Counters["memostore.hits"]; hits == 0 {
		t.Fatalf("warm persistent memo had no hits (misses %d)", snap.Counters["memostore.misses"])
	}
}

// TestGracefulShutdown: draining stops intake with 503 while finishing
// accepted work, and a drained server reports clean.
func TestGracefulShutdown(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	payload := recordPayload(t, "exec01")
	_, body := upload(t, ts, "t", "exec01-0.rlog", payload)
	id := jobID(t, body)
	if err := srv.Shutdown(testCtx(t)); err != nil {
		t.Fatalf("shutdown = %v", err)
	}
	if v, _ := srv.lookupJob(id); v.Status != StatusDone {
		t.Fatalf("accepted job after drain = %s, want done", v.Status)
	}
	resp, _ := upload(t, ts, "t", "late.rlog", payload)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("upload while draining = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	if resp, _ := get(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining = %d, want 503", resp.StatusCode)
	}
	// Shutdown is idempotent.
	if err := srv.Shutdown(testCtx(t)); err != nil {
		t.Fatalf("second shutdown = %v", err)
	}
}

// TestServeIsDeterministicAcrossWorkerCounts: the merged report is
// byte-identical at any worker count, upload order notwithstanding.
func TestServeIsDeterministicAcrossWorkerCounts(t *testing.T) {
	payloads := map[string][]byte{
		"exec01-0.rlog": recordPayload(t, "exec01"),
		"exec02-0.rlog": recordPayload(t, "exec02"),
		"exec04-0.rlog": recordPayload(t, "exec04"),
	}
	run := func(jobs int, order []string) string {
		srv, ts := newTestServer(t, Config{Jobs: jobs})
		for _, label := range order {
			_, body := upload(t, ts, "t", label, payloads[label])
			defer waitTerminal(t, srv, jobID(t, body))
		}
		for _, v := range srv.sortedViews() {
			waitTerminal(t, srv, v.ID)
		}
		text, pending := srv.MergedReport()
		if pending != 0 {
			t.Fatalf("pending = %d after all jobs terminal", pending)
		}
		return text
	}
	serial := run(1, []string{"exec01-0.rlog", "exec02-0.rlog", "exec04-0.rlog"})
	parallel := run(4, []string{"exec04-0.rlog", "exec01-0.rlog", "exec02-0.rlog"})
	if serial != parallel {
		t.Fatalf("merged report differs across worker counts:\n--- jobs=1\n%s\n--- jobs=4\n%s", serial, parallel)
	}
}

// TestStaleSpoolSweep: spool files orphaned by a crash between
// CreateTemp and the rename into place are removed on the next startup,
// while real job payloads survive the sweep.
func TestStaleSpoolSweep(t *testing.T) {
	dataDir := t.TempDir()
	jobs := filepath.Join(dataDir, "jobs")
	if err := os.MkdirAll(jobs, 0o755); err != nil {
		t.Fatal(err)
	}
	stale := []string{"up-123456.spool", "up-987654.tmp"}
	for _, name := range stale {
		if err := os.WriteFile(filepath.Join(jobs, name), []byte("orphan"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	payload := filepath.Join(jobs, "job-000001.rlog")
	if err := os.WriteFile(payload, []byte("payload"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{DataDir: dataDir, Registry: obs.NewRegistry()}); err != nil {
		t.Fatal(err)
	}
	for _, name := range stale {
		if _, err := os.Stat(filepath.Join(jobs, name)); !os.IsNotExist(err) {
			t.Errorf("%s survived startup; stale spools must be swept", name)
		}
	}
	if _, err := os.Stat(payload); err != nil {
		t.Errorf("job payload swept with the stale spools: %v", err)
	}
}

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// TestUploadSpoolsNotBuffers: a max-size upload streams into the spool
// file as it arrives instead of being read into memory, so the ingest
// path's allocations stay far below the body size. The body is junk
// that fails the magic sniff, so decode reads five bytes and what's
// measured is ingest itself, not the decoded log.
func TestUploadSpoolsNotBuffers(t *testing.T) {
	const bodySize = 16 << 20
	srv, err := New(Config{DataDir: t.TempDir(), MaxUploadBytes: bodySize, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	// No Start(): a junk upload quarantines at decode, so its verdict is
	// terminal without workers — and no worker goroutine muddies the
	// allocation measurement.
	h := srv.Handler()
	body := bytes.Repeat([]byte{0x5a}, bodySize)

	serveUpload := func() int {
		req := httptest.NewRequest("POST", "/v1/upload?label=big.rlog", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code
	}
	serveUpload() // warm-up: lazily allocated handler state doesn't count

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if code := serveUpload(); code != http.StatusBadRequest {
		t.Fatalf("junk upload status = %d, want 400", code)
	}
	runtime.ReadMemStats(&after)
	delta := int64(after.TotalAlloc - before.TotalAlloc)
	if delta > bodySize/4 {
		t.Fatalf("upload allocated %d bytes handling a %d-byte body; ingest is buffering, not spooling",
			delta, bodySize)
	}
	// The body still made it to disk in full: both uploads quarantined
	// after spooling every byte.
	if got := srv.cSpooled.Value(); got != 2*bodySize {
		t.Fatalf("serve.spooled_bytes = %d, want %d", got, 2*bodySize)
	}
}
