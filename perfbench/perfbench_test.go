package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"hitlist6/internal/collector"
	"hitlist6/internal/workload"
)

// shrink makes every workload small enough for a unit test and restores
// the benchmark sizes afterwards.
func shrink(t *testing.T) {
	t.Helper()
	cs, ss, ds, db := corpusSize, studySize, daemonSize, daemonBase
	corpusSize = workload.Size{Scale: 0.05, Days: 6}
	studySize = workload.Size{Scale: 0.02, Days: 20}
	daemonSize = workload.Size{Scale: 0.1, Days: 20}
	daemonBase = 2000
	t.Cleanup(func() { corpusSize, studySize, daemonSize, daemonBase = cs, ss, ds, db })
}

func testEnv(t *testing.T, seed int64) env {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	// The daemon's generator only checks that the ingestd path exists.
	return env{seed: seed, seconds: 0.05, work: t.TempDir(), ingestd: exe, traceOut: t.TempDir()}
}

func TestGenerationDeterministicPerSeed(t *testing.T) {
	shrink(t)
	corpus := func(seed int64) *corpusWorkload {
		w, err := newCorpusWorkload(testEnv(t, seed))
		if err != nil {
			t.Fatal(err)
		}
		return w.(*corpusWorkload)
	}
	a, b, c := corpus(1), corpus(1), corpus(2)
	if !bytes.Equal(a.buf, b.buf) || a.refSum != b.refSum || fmt.Sprint(a.probes) != fmt.Sprint(b.probes) {
		t.Error("corpus: seed 1 generated different inputs twice")
	}
	if bytes.Equal(a.buf, c.buf) {
		t.Error("corpus: seeds 1 and 2 generated the same lines")
	}

	daemon := func(seed int64) *daemonWorkload {
		w, err := newDaemonWorkload(testEnv(t, seed))
		if err != nil {
			t.Fatal(err)
		}
		return w.(*daemonWorkload)
	}
	d1, d2, d3 := daemon(1), daemon(1), daemon(2)
	base1, err := os.ReadFile(d1.baseSnap)
	if err != nil {
		t.Fatal(err)
	}
	base2, err := os.ReadFile(d2.baseSnap)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(d1.datagrams, d1.probes, d1.verify) != fmt.Sprint(d2.datagrams, d2.probes, d2.verify) || !bytes.Equal(base1, base2) {
		t.Error("daemon: seed 1 generated different inputs twice")
	}
	if fmt.Sprint(d1.datagrams) == fmt.Sprint(d3.datagrams) {
		t.Error("daemon: seeds 1 and 2 generated the same datagrams")
	}
}

// benchmarkNames reads the metric names BENCHMARK.json declares.
func benchmarkNames(t *testing.T) (e2e, layer map[string]bool) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	e2e, layer = map[string]bool{}, map[string]bool{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = true
	}
	for _, m := range spec.PerLayer {
		layer[m.Name] = true
	}
	return e2e, layer
}

// runOutput runs one invocation and decodes its last stdout line.
func runOutput(t *testing.T, name string, e env, traced bool) (result, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	runErr := run(name, e, traced)
	os.Stdout = stdout
	w.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line %q: %v", name, lines[len(lines)-1], err)
	}
	return res, runErr
}

// checkNames holds a run's metric names to the name pattern and, when
// declared is non-nil, to exactly the names BENCHMARK.json declares:
// every gated workload prints every declared metric and no other.
func checkNames(t *testing.T, label string, m metrics, declared map[string]bool) {
	t.Helper()
	for n := range m {
		if !nameRE.MatchString(n) || (declared != nil && !declared[n]) {
			t.Errorf("%s emitted %q, not a declared name", label, n)
		}
	}
	for n := range declared {
		if _, ok := m[n]; !ok {
			t.Errorf("%s did not emit declared metric %q", label, n)
		}
	}
}

func TestEmittedNames(t *testing.T) {
	shrink(t)
	e2e, layer := benchmarkNames(t)
	for _, names := range []map[string]bool{e2e, layer} {
		for n := range names {
			if !nameRE.MatchString(n) {
				t.Errorf("BENCHMARK.json name %q does not match %s", n, nameRE)
			}
		}
	}
	for _, traced := range []bool{false, true} {
		res, err := runOutput(t, "corpus", testEnv(t, 1), traced)
		if err != nil || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Fatalf("corpus traced=%v: %+v, %v", traced, res, err)
		}
		want := e2e
		if traced {
			want = layer
		}
		checkNames(t, fmt.Sprintf("corpus traced=%v", traced), res.Metrics, want)
	}

	// The study workload is not in BENCHMARK.json; its names only have
	// to match the pattern.
	w, err := newStudyWorkload(testEnv(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range []*tracer{nil, newTracer()} {
		var o outcome
		p, err := w.measure(tr, &o)
		if err != nil {
			t.Fatal(err)
		}
		checkNames(t, "study", p.e2e, nil)
		checkNames(t, "study", p.layer, nil)
		if tr != nil {
			phases, spans := tr.layerMetrics()
			checkNames(t, "study", phases, nil)
			checkNames(t, "study", spans, nil)
		}
	}
}

// TestDaemonWorkload runs the daemon workload end to end against a
// freshly built ingestd.
func TestDaemonWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs cmd/ingestd")
	}
	shrink(t)
	e := testEnv(t, 1)
	e.seconds = 1
	e.ingestd = filepath.Join(t.TempDir(), "ingestd")
	build := exec.Command("go", "build", "-o", e.ingestd, "./cmd/ingestd")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/ingestd: %v\n%s", err, out)
	}
	e2e, layer := benchmarkNames(t)
	for _, traced := range []bool{false, true} {
		res, err := runOutput(t, "daemon", e, traced)
		if err != nil || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Fatalf("daemon traced=%v: %+v, %v", traced, res, err)
		}
		want := e2e
		if traced {
			want = layer
		}
		checkNames(t, fmt.Sprintf("daemon traced=%v", traced), res.Metrics, want)
	}
}

func TestInjectedMismatchCounted(t *testing.T) {
	shrink(t)
	e := testEnv(t, 1)
	w, err := newCorpusWorkload(e)
	if err != nil {
		t.Fatal(err)
	}
	cw := w.(*corpusWorkload)
	cw.refSum[0] ^= 1
	var o outcome
	if _, err := cw.measure(nil, &o); err != nil {
		t.Fatal(err)
	}
	if o.correct() || o.failed == 0 {
		t.Fatalf("a corrupted reference checksum went unnoticed: %+v", o)
	}
	for _, m := range o.mismatches {
		if !strings.Contains(m, "checksum") {
			t.Errorf("unexpected mismatch %q", m)
		}
	}

	// The same injection through run: a result line, then a non-zero exit.
	workloads["corrupt"] = func(env) (benchWorkload, error) { return cw, nil }
	defer delete(workloads, "corrupt")
	res, err := runOutput(t, "corrupt", e, false)
	if err == nil || res.Correct || res.Failed == 0 {
		t.Fatalf("run with a mismatch: %+v, err %v", res, err)
	}
}

func TestLostEventCounted(t *testing.T) {
	var o outcome
	dm := series{"ingest_events_processed_total": 99}
	if lost := deliveryCheck(100, 99, dm, &o); lost != 1 || o.failed != 1 || !o.correct() {
		t.Errorf("one lost event: lost %d, %+v", lost, o)
	}
	o = outcome{}
	dm["ingest_events_processed_total"] = 98
	deliveryCheck(100, 100, dm, &o)
	if o.correct() || o.failed != 1 {
		t.Errorf("parsed events the shards never processed: %+v", o)
	}
}

func TestVerifyProbes(t *testing.T) {
	w := &daemonWorkload{}
	w.verify = []probe{{found: true, rec: collector.AddrRecord{First: 1, Last: 2, Count: 3}}}
	var answer atomic.Value
	answer.Store(`{"found":true,"first":1,"last":2,"count":3}`)
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(rw, answer.Load())
	}))
	defer srv.Close()
	d := &ingestd{httpAddr: strings.TrimPrefix(srv.URL, "http://"), client: srv.Client()}

	var o outcome
	w.verifyProbes(d, nil, -1, 0, &o)
	if !o.correct() || o.failed != 0 || o.attempted != 1 {
		t.Errorf("matching answer: %+v", o)
	}
	answer.Store(`{"found":true,"first":1,"last":2,"count":2}`)
	o = outcome{}
	w.verifyProbes(d, nil, -1, 0, &o)
	if o.correct() {
		t.Errorf("a wrong answer with nothing lost must be a mismatch: %+v", o)
	}
	o = outcome{}
	w.verifyProbes(d, nil, -1, 5, &o)
	if !o.correct() || o.failed != 1 {
		t.Errorf("a wrong answer after lost events must be a failed operation: %+v", o)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "b", Start: 30, End: 60},
		{ID: 3, Parent: 1, Name: "c", Start: 20, End: 30},
	}
	self, residual, wall := selfTimes(spans)
	if self["a"] != 20 || self["b"] != 30 || self["c"] != 10 || residual != 50 || wall != 100 {
		t.Errorf("self %v residual %d wall %d", self, residual, wall)
	}
}

func TestPhaseSelfTimes(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 0, Parent: -1, Name: "corpus.round", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "ingest.parse", Start: 0, End: 30},
		{ID: 2, Parent: 0, Name: "ingest.submit", Start: 30, End: 50},
		{ID: 3, Parent: 0, Name: "collector.checkpoint", Start: 60, End: 90},
	}}
	phases, spans := tr.layerMetrics()
	if phases["self.ingest_s"].Value != 50e-9 || phases["self.snapshot_s"].Value != 30e-9 ||
		phases["trace.residual_s"].Value != 20e-9 || phases["trace.wall_s"].Value != 100e-9 {
		t.Errorf("phases %v", phases)
	}
	if spans["self.ingest.parse_s"].Value != 30e-9 || len(spans) != 3 {
		t.Errorf("spans %v", spans)
	}
}
