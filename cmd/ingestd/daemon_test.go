package main

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hitlist6/internal/asdb"
	"hitlist6/internal/ingest"
	"hitlist6/internal/telemetry"
)

// newTestDaemon builds a daemon around a small in-memory pipeline, its
// log discarded but still mirrored into the events ring. snapDir == ""
// leaves durable snapshots disabled.
func newTestDaemon(t *testing.T, snapDir string) *daemon {
	t.Helper()
	reg := telemetry.NewRegistry()
	cfg := ingest.DefaultConfig(2)
	cfg.Registry = reg
	pipe, err := ingest.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ring := telemetry.NewEventRing(32)
	logger, err := telemetry.NewLogger(telemetry.LogOptions{Output: io.Discard, Ring: ring})
	if err != nil {
		t.Fatal(err)
	}
	d := &daemon{
		pipe: pipe, reg: reg, health: telemetry.NewHealth(), ring: ring, log: logger,
	}
	reg.GaugeFunc("ingestd_malformed_lines",
		"Input lines that failed to parse since start.",
		func() float64 { return float64(d.badLines.Load()) })
	if snapDir != "" {
		d.snapPath = snapshotPath(snapDir)
	}
	return d
}

// feed pushes a couple of events through the pipeline and waits for the
// live store to see them.
func feed(t *testing.T, d *daemon) {
	t.Helper()
	b := d.pipe.NewBatcher()
	ingestDatagram(b, []byte("1643673600 2001:db8::1 3\n1643673601 2001:db8::2 4\n"), &d.badLines)
	b.Flush()
	d.pipe.SnapshotNow()
	deadline := time.Now().Add(5 * time.Second)
	for d.pipe.Store().NumAddrs() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("store never saw the ingested events")
		}
		time.Sleep(time.Millisecond)
	}
}

// get fetches a path from the test server and returns status, the
// Content-Type header and the body.
func get(t *testing.T, base, path string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", path, err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
}

// TestEndpointContentTypes pins the HTTP contract of every endpoint:
// the JSON endpoints declare application/json, /metrics declares the
// Prometheus 0.0.4 exposition type, and the probe endpoints are plain
// text. Dashboards and scrapers key off these headers.
func TestEndpointContentTypes(t *testing.T) {
	d := newTestDaemon(t, t.TempDir())
	defer d.pipe.Close()
	d.routes = new(asdb.DB) // enable /outages (shape only; no stage present)
	feed(t, d)
	srv := httptest.NewServer(d.newMux())
	defer srv.Close()

	for _, tc := range []struct {
		path string
		ct   string
	}{
		{"/stats", "application/json"},
		{"/outages", "application/json"},
		{"/metrics", telemetry.ContentType},
		{"/healthz", "text/plain; charset=utf-8"},
		{"/readyz", "text/plain; charset=utf-8"},
		{"/debug/events", "application/json"},
	} {
		status, ct, _ := get(t, srv.URL, tc.path)
		wantStatus := http.StatusOK
		if tc.path == "/readyz" { // not ready until main flips it
			wantStatus = http.StatusServiceUnavailable
		}
		if status != wantStatus {
			t.Errorf("%s: status %d, want %d", tc.path, status, wantStatus)
		}
		if ct != tc.ct {
			t.Errorf("%s: Content-Type %q, want %q", tc.path, ct, tc.ct)
		}
	}
}

// TestStatsEndpointShape decodes /stats and checks the JSON keys the
// dashboards rely on survived the registry-backed Metrics rewrite.
func TestStatsEndpointShape(t *testing.T) {
	d := newTestDaemon(t, "")
	defer d.pipe.Close()
	feed(t, d)
	srv := httptest.NewServer(d.newMux())
	defer srv.Close()

	_, _, body := get(t, srv.URL, "/stats")
	var reply statsReply
	if err := json.Unmarshal([]byte(body), &reply); err != nil {
		t.Fatalf("/stats not JSON: %v\n%s", err, body)
	}
	if reply.UniqueAddrs != 2 || reply.Metrics.Processed != 2 {
		t.Errorf("stats = %+v, want 2 addrs / 2 processed", reply)
	}
	for _, key := range []string{
		`"enqueued"`, `"processed"`, `"events_per_sec"`, `"corpus_bytes"`,
		`"checkpoints"`, `"queued_batches"`,
	} {
		if !strings.Contains(body, key) {
			t.Errorf("/stats lost key %s:\n%s", key, body)
		}
	}
}

// TestMetricsEndpoint checks the exposition end to end: well-formed
// 0.0.4 text carrying the pipeline's per-shard and distribution
// families plus the daemon's own gauges.
func TestMetricsEndpoint(t *testing.T) {
	d := newTestDaemon(t, t.TempDir())
	defer d.pipe.Close()
	feed(t, d)
	if _, err := d.pipe.CheckpointChain(d.snapPath); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(d.newMux())
	defer srv.Close()

	_, _, body := get(t, srv.URL, "/metrics")
	if problems := telemetry.LintExposition(body); len(problems) > 0 {
		t.Errorf("exposition not well-formed: %v", problems)
	}
	for _, want := range []string{
		`ingest_events_processed_total 2`,
		`ingest_queue_depth{shard="0"}`,
		`ingest_queue_depth{shard="1"}`,
		`ingest_batch_seconds_bucket{shard="0",le=`,
		`ingest_batch_events_sum`,
		`ingest_checkpoint_seconds_count 1`,
		`ingest_checkpoint_written_bytes_count 1`,
		`ingest_corpus_addresses 2`,
		`ingestd_malformed_lines 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestDebugEndpoints covers the introspection surface: log records
// appear on /debug/events, and the explicit pprof routes respond on
// the daemon's private mux.
func TestDebugEndpoints(t *testing.T) {
	d := newTestDaemon(t, "")
	defer d.pipe.Close()
	d.log.Info("checkpoint written", "bytes", 123)
	srv := httptest.NewServer(d.newMux())
	defer srv.Close()

	_, _, body := get(t, srv.URL, "/debug/events")
	if !strings.Contains(body, "checkpoint written") || !strings.Contains(body, `"bytes":"123"`) {
		t.Errorf("/debug/events missing the logged record:\n%s", body)
	}

	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/symbol"} {
		if status, _, _ := get(t, srv.URL, path); status != http.StatusOK {
			t.Errorf("%s: status %d", path, status)
		}
	}
}

// TestSnapshotEndpointMethods pins /snapshot's method handling: GET is
// rejected, POST writes and reports the checkpoint.
func TestSnapshotEndpointMethods(t *testing.T) {
	d := newTestDaemon(t, t.TempDir())
	defer d.pipe.Close()
	feed(t, d)
	srv := httptest.NewServer(d.newMux())
	defer srv.Close()

	if status, _, _ := get(t, srv.URL, "/snapshot"); status != http.StatusMethodNotAllowed {
		t.Errorf("GET /snapshot: status %d, want 405", status)
	}
	resp, err := http.Post(srv.URL+"/snapshot", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var reply snapshotReply
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		t.Fatal(err)
	}
	if reply.Path != d.snapPath || reply.Bytes <= 0 {
		t.Errorf("snapshot reply %+v", reply)
	}
}

// TestSnapshotFailureCounted: a POST /snapshot that cannot write
// answers 500 and counts in checkpoint_errors, like a failed tick.
func TestSnapshotFailureCounted(t *testing.T) {
	d := newTestDaemon(t, filepath.Join(t.TempDir(), "missing"))
	defer d.pipe.Close()
	feed(t, d)
	srv := httptest.NewServer(d.newMux())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/snapshot", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("POST /snapshot into a missing dir: status %d, want 500", resp.StatusCode)
	}
	if m := d.pipe.Metrics(); m.CheckpointErrors != 1 {
		t.Errorf("checkpoint_errors = %d, want 1", m.CheckpointErrors)
	}
}

// TestGracefulShutdown drives the full drain: the readiness gate flips,
// the (fake) source is stopped and awaited, the final checkpoint lands
// on disk as a delta on an earlier base and restores to the live corpus,
// and the HTTP listener refuses new connections.
func TestGracefulShutdown(t *testing.T) {
	d := newTestDaemon(t, t.TempDir())
	feed(t, d)
	if _, err := d.checkpointNow(); err != nil {
		t.Fatal(err)
	}
	d.health.SetReady()

	// A stand-in source: stopSource signals it, and it closes sourceDone
	// after one last flush — the same contract ingestUDP follows.
	stop := make(chan struct{})
	d.sourceDone = make(chan struct{})
	d.stopSource = func() { close(stop) }
	go func() {
		defer close(d.sourceDone)
		<-stop
		b := d.pipe.NewBatcher()
		ingestDatagram(b, []byte("1643673700 2001:db8::99 1\n"), &d.badLines)
		b.Flush()
	}()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: d.newMux()}
	go srv.Serve(ln)
	base := "http://" + ln.Addr().String()
	if status, _, _ := get(t, base, "/readyz"); status != http.StatusOK {
		t.Fatalf("ready daemon reports %d", status)
	}

	d.shutdown(srv)

	if ready, reason := d.health.Ready(); ready || reason != "shutting down" {
		t.Errorf("after shutdown: ready=%v reason=%q", ready, reason)
	}
	select {
	case <-d.sourceDone:
	default:
		t.Error("shutdown returned before the source stopped")
	}
	// The final checkpoint is a delta, and the chain contains
	// everything, including the event the source flushed during the drain.
	if m := d.pipe.Metrics(); m.Checkpoints != 2 || m.DeltaCheckpoints != 1 {
		t.Fatalf("want a base and a final delta, got %+v", m)
	}
	c, err := ingest.RestoreChainFiles(d.snapPath)
	if err != nil {
		t.Fatalf("final checkpoint unreadable: %v", err)
	}
	if c == nil || c.NumAddrs() != 3 || c.Checksum() != d.pipe.Store().Checksum() {
		t.Fatalf("final checkpoint incomplete: %+v", c)
	}
	// Listener closed: fresh connections must fail.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("HTTP listener still accepting after shutdown")
	}
	d.pipe.Close()
}
