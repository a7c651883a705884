package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"hitlist6/internal/telemetry"
)

// span is one timed call across a layer boundary. Spans of one
// iteration share Run; Parent is the enclosing span's ID, -1 at a root.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Run    string `json:"run"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced pass: every method is a no-op.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	run   string
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// setRun names the iteration later spans belong to.
func (t *tracer) setRun(run string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.run = run
	t.mu.Unlock()
}

// begin opens a span under parent (-1 for a root) and returns its ID.
func (t *tracer) begin(name string, parent int32) int32 {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Run: t.run, Start: now, End: -1})
	return id
}

// end closes span id.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// do runs fn inside a span.
func (t *tracer) do(name string, parent int32, fn func()) {
	id := t.begin(name, parent)
	fn()
	t.end(id)
}

// selfTimes returns each span name's summed self time in ns — a span's
// duration minus the part of it its children cover — and the residual:
// the self time of root spans, which no layer claims.
func selfTimes(spans []span) (self map[string]int64, residual, wall int64) {
	children := map[int32][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self = map[string]int64{}
	for _, s := range spans {
		d := s.End - s.Start - covered(s, children[s.ID])
		if s.Parent < 0 {
			residual += d
			wall += s.End - s.Start
			continue
		}
		self[s.Name] += d
	}
	return self, residual, wall
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	curLo, curHi = -1, -1
	for _, x := range iv {
		if x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	return total + curHi - curLo
}

// spanPhase groups span names into the phases the end-to-end metrics
// time, so that every workload reports the same self-time names. A span
// name not listed here is a phase of its own.
var spanPhase = map[string]string{
	"ingest.new":           "setup",
	"ingestd.start":        "setup",
	"study.new":            "setup",
	"ingest.parse":         "ingest",
	"ingest.submit":        "ingest",
	"ingest.quiesce":       "ingest",
	"ingest.close":         "ingest",
	"udp.send":             "ingest",
	"study.collect":        "ingest",
	"collector.checkpoint": "snapshot",
	"pager.write_tier":     "snapshot",
	"pager.open":           "snapshot",
	"http.snapshot":        "snapshot",
	"pager.get":            "probe",
	"http.probe":           "probe",
	"http.verify":          "probe",
	"ingest.restore":       "restore",
	"ingestd.restart":      "restore",
}

// layerMetrics reports each phase's self time as self.<phase>_s, the
// residual and wall time of the root spans, and the span count; spans
// holds every span name's own self time as self.<name>_s.
func (t *tracer) layerMetrics() (phases, spans metrics) {
	t.mu.Lock()
	defer t.mu.Unlock()
	self, residual, wall := selfTimes(t.spans)
	phases, spans = metrics{}, metrics{}
	byPhase := map[string]int64{}
	for name, ns := range self {
		spans.set("self."+name+"_s", float64(ns)/1e9, "s")
		phase, ok := spanPhase[name]
		if !ok {
			phase = name
		}
		byPhase[phase] += ns
	}
	for phase, ns := range byPhase {
		phases.set("self."+phase+"_s", float64(ns)/1e9, "s")
	}
	phases.set("trace.residual_s", float64(residual)/1e9, "s")
	phases.set("trace.wall_s", float64(wall)/1e9, "s")
	phases.set("trace.spans", float64(len(t.spans)), "count")
	return phases, spans
}

// write stores the spans as JSON lines under dir and returns the path.
func (t *tracer) write(dir, file string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, file)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		return "", err
	}
	return path, f.Close()
}

// ---- telemetry series ----

// series is one scrape of a Prometheus text exposition: sample key
// (name plus label block) to value.
type series map[string]float64

// parseExposition reads the text format the program's registries and
// ingestd's /metrics render.
func parseExposition(text string) (series, error) {
	s := series{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("exposition line %q: %w", line, err)
		}
		s[line[:i]] = v
	}
	return s, nil
}

// scrape reads an in-process registry.
func scrape(reg *telemetry.Registry) (series, error) {
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		return nil, err
	}
	return parseExposition(b.String())
}

// total sums every sample of one metric name across its label sets.
func (s series) total(name string) float64 {
	t := 0.0
	for k, v := range s {
		if k == name || strings.HasPrefix(k, name+"{") {
			t += v
		}
	}
	return t
}

// label returns the sample of name whose label block is exactly labels.
func (s series) label(name, labels string) float64 { return s[name+"{"+labels+"}"] }

// delta is after minus before, sample by sample.
func delta(before, after series) series {
	d := series{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}
