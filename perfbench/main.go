// Command perfbench is the repository's end-to-end benchmark. One
// invocation runs one workload on inputs generated from --seed, measures
// for about --seconds seconds, checks the program's outputs against
// references built in set-up, and prints as its last line one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// With --trace 0 the metrics are the workload's end-to-end metrics. With
// --trace 1 the workload runs twice on the same inputs, untraced then
// traced, and the metrics are the per-layer ones: spans recorded around
// every call into a layer (written to --traceout), deltas of the
// program's own telemetry series, each phase's self time, the
// unattributed residual, and the tracing overhead as the traced-minus-
// untraced difference of every end-to-end metric.
//
// Workloads (see METRICS.md for the metric map):
//
//	study   NewStudy → CollectPassive → BuildActive → repeated Report()
//	corpus  parse → Batcher → pipeline with CheckpointChain → Close →
//	        pager.WriteTier → pager.Open → point probes → RestoreChainFiles
//	daemon  cmd/ingestd fed UDP datagrams open-loop while one HTTP
//	        connection alternates GET /probe and POST /snapshot
//
// Usage (run.py builds the binaries and passes the paths):
//
//	perfbench --workload corpus --seed 1 --seconds 30 --trace 0 \
//	    --work .bench_build/work --ingestd .bench_build/ingestd
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"regexp"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// nproc is the load and parallelism width: GOMAXPROCS, shards, analysis
// workers and the daemon's GOMAXPROCS are all set to it.
var nproc = runtime.NumCPU()

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps a metric name to its measured value.
type metrics map[string]metricValue

func (m metrics) set(name string, v float64, unit string) { m[name] = metricValue{v, unit} }

// result is the benchmark's last output line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// outcome accounts for operations: every timed call is attempted; an
// operation the program failed to serve (an error, a lost event, a
// non-200 reply) is failed; an output that differs from its reference
// is failed and also makes the run incorrect.
type outcome struct {
	attempted, failed int64
	mismatches        []string
}

func (o *outcome) ops(n int64) { o.attempted += n }

// fail counts n failed operations without judging the outputs wrong.
func (o *outcome) fail(n int64, format string, args ...any) {
	if n <= 0 {
		return
	}
	o.failed += n
	fmt.Fprintf(os.Stderr, "perfbench: %d failed: %s\n", n, fmt.Sprintf(format, args...))
}

// check records one output check; a false ok is a mismatch.
func (o *outcome) check(ok bool, format string, args ...any) {
	if ok {
		return
	}
	o.failed++
	msg := fmt.Sprintf(format, args...)
	o.mismatches = append(o.mismatches, msg)
	fmt.Fprintln(os.Stderr, "perfbench: output check failed:", msg)
}

func (o *outcome) correct() bool { return len(o.mismatches) == 0 }

// pass is one measured pass of a workload: its end-to-end metrics, the
// per-layer metrics a traced pass adds, and the detail line's fields.
// Every gated workload sets every metric BENCHMARK.json names, each at
// its own surface; a layer figure only one workload can measure goes in
// detailLayer, which a traced run prints on the detail line.
type pass struct {
	e2e         metrics
	layer       metrics
	detailLayer metrics
	detail      map[string]any
}

func newPass() *pass {
	return &pass{e2e: metrics{}, layer: metrics{}, detailLayer: metrics{}, detail: map[string]any{}}
}

// benchWorkload generates its inputs once, then measures passes over them.
type benchWorkload interface {
	// size describes the generated input for the provenance block.
	size() map[string]any
	// measure runs one pass; tr is nil in an untraced pass.
	measure(tr *tracer, o *outcome) (*pass, error)
}

type env struct {
	seed     int64
	seconds  float64
	work     string // scratch directory inside the checkout
	ingestd  string // path of the built cmd/ingestd binary
	traceOut string
}

var workloads = map[string]func(env) (benchWorkload, error){
	"study":  newStudyWorkload,
	"corpus": newCorpusWorkload,
	"daemon": newDaemonWorkload,
}

// nameRE is what every emitted metric name must match.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func main() {
	var (
		name     = flag.String("workload", "", "workload: study, corpus or daemon")
		seed     = flag.Int64("seed", 1, "input generation seed")
		seconds  = flag.Float64("seconds", 30, "measured time per pass")
		trace    = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
		work     = flag.String("work", ".bench_build/work", "scratch directory for checkpoints and tier files")
		ingestd  = flag.String("ingestd", ".bench_build/ingestd", "cmd/ingestd binary (daemon workload)")
		traceOut = flag.String("traceout", ".bench_build/traces", "directory the traced run writes its spans to")
	)
	flag.Parse()
	if err := run(*name, env{*seed, *seconds, *work, *ingestd, *traceOut}, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, e env, traced bool) error {
	mk, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if e.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	runtime.GOMAXPROCS(nproc)
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(e.work, name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	e.work = dir

	w, err := mk(e)
	if err != nil {
		return fmt.Errorf("%s set-up: %w", name, err)
	}
	// Input generation's garbage goes back to the OS once, so it does not
	// sit in the measured passes' resident set.
	debug.FreeOSMemory()
	var o outcome
	base, err := w.measure(nil, &o)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	out := base.e2e
	detail := base.detail
	if traced {
		tr := newTracer()
		tp, err := w.measure(tr, &o)
		if err != nil {
			return fmt.Errorf("%s traced: %w", name, err)
		}
		out = tp.layer
		phases, spans := tr.layerMetrics()
		for k, v := range phases {
			out[k] = v
		}
		for k, v := range base.e2e {
			out.set("overhead."+k, tp.e2e[k].Value-v.Value, v.Unit)
		}
		path, err := tr.write(e.traceOut, fmt.Sprintf("%s-seed%d.json", name, e.seed))
		if err != nil {
			return err
		}
		detail["trace_file"] = path
		detail["traced_e2e"] = tp.e2e
		detail["span_self_s"] = spans
		detail["layer"] = tp.detailLayer
	}
	for k, v := range out {
		if !nameRE.MatchString(k) || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("bad metric %q = %v", k, v.Value)
		}
	}
	detail["provenance"] = provenance(name, e.seed, w.size())
	detail["mismatches"] = o.mismatches
	if err := printJSON(map[string]any{"detail": detail}); err != nil {
		return err
	}
	if err := printJSON(result{o.correct(), o.attempted, o.failed, out}); err != nil {
		return err
	}
	if !o.correct() {
		return fmt.Errorf("%d output check(s) failed", len(o.mismatches))
	}
	return nil
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", b)
	return err
}

// provenance identifies the build, machine and input behind a result.
func provenance(name string, seed int64, size map[string]any) map[string]any {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"commit":     commit,
		"workload":   name,
		"seed":       seed,
		"size":       size,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// ---- memory ----

// resetPeakRSS collects garbage and resets the kernel's peak-RSS mark
// (VmHWM) to the current RSS, so a later peakRSSMB reads the peak of the
// phase that follows rather than of input generation. Freed heap is not
// returned to the OS: the phase would then pay page faults for memory
// the runtime already held. On a kernel that refuses the reset the mark
// keeps the process-lifetime peak.
func resetPeakRSS() {
	settle()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: peak RSS not reset:", err)
	}
}

// settle collects the previous phase's garbage before the next timed
// phase, so no phase pays for another's heap and the peak RSS does not
// depend on where a collection happened to fall.
func settle() { runtime.GC() }

// peakRSSMB reads VmHWM of a process ("self" or a pid) in MiB.
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// ---- statistics ----

// quantile is the linearly interpolated q-quantile of xs (unsorted).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailBlock is the sample block of blockTail: its 99th percentile has 20
// samples beyond it.
const tailBlock = 2000

// blockTail is the median, over consecutive blocks of tailBlock samples,
// of each block's q-quantile. One stalled stretch of a run moves one
// block's tail, not the reported one. With no full block it is the
// q-quantile of all samples.
func blockTail(xs []float64, q float64) float64 {
	if len(xs) < tailBlock {
		return quantile(xs, q)
	}
	var tails []float64
	for i := 0; i+tailBlock <= len(xs); i += tailBlock {
		tails = append(tails, quantile(xs[i:i+tailBlock], q))
	}
	return median(tails)
}

// deadline is a pass's measuring clock.
type deadline struct{ end time.Time }

func after(seconds float64) deadline {
	return deadline{time.Now().Add(time.Duration(seconds * float64(time.Second)))}
}

func (d deadline) passed() bool { return !time.Now().Before(d.end) }
