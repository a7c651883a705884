package main

import (
	"bufio"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"time"

	"hitlist6/internal/addr"
	"hitlist6/internal/collector"
	"hitlist6/internal/ingest"
	"hitlist6/internal/pager"
	"hitlist6/internal/telemetry"
	"hitlist6/internal/workload"
)

// The corpus workload is the write-heavy path of a growing corpus: the
// churn profile, rendered to event lines in set-up, is parsed and fed
// through one Batcher into the sharded pipeline with a CheckpointChain
// at a fixed event cadence, closed, written as a tier file, opened under
// a RAM budget far below the tier size, probed point by point (closed
// loop, one caller), and restored from its checkpoint chain. No
// analysis runs here.
var corpusSize = workload.Size{Scale: 2, Days: 60} // tests shrink the sizes

const (
	// corpusCheckpoints is how many CheckpointChain calls one ingest
	// round makes, evenly spaced in events; the last follows the final
	// event, so the chain holds the whole corpus.
	corpusCheckpoints = 8
	// corpusBlock is how many lines are parsed before the parsed events
	// are submitted: parse and submission time separately at this grain.
	corpusBlock = 4096
	// corpusProbes is the probe set: three quarters present keys drawn
	// uniformly over the corpus, an eighth absent neighbours of present
	// keys (inside a chunk's fence), an eighth absent random keys. With
	// half the keys absent the median would sit on the edge between the
	// filter's sub-microsecond rejections and chunk loads a hundred times
	// slower, and swing between the two from run to run.
	corpusProbes = 20000
	// corpusBudgetDiv sets the pager's RAM budget to the tier size over
	// this divisor, so the uniform probe working set cannot stay resident.
	corpusBudgetDiv = 8
	// corpusExtraSetups adds ingest.New calls whose only use is the
	// set-up median.
	corpusExtraSetups = 20
	// corpusMinCycles is the fewest cycles a run makes, however short
	// --seconds is; corpusRestores is how many restores each cycle times.
	corpusMinCycles = 3
	corpusRestores  = 3
)

type probe struct {
	a     addr.Addr
	found bool
	rec   collector.AddrRecord
}

type corpusWorkload struct {
	e      env
	buf    []byte   // every event line, newline-terminated
	ends   []uint32 // ends[i] is the offset just past line i's newline
	refSum [32]byte // checksum of the serial reference corpus
	addrs  int
	probes []probe
}

func newCorpusWorkload(e env) (benchWorkload, error) {
	prof, ok := workload.Lookup("churn")
	if !ok {
		return nil, fmt.Errorf("no churn profile")
	}
	st, err := prof.Stream(e.seed, corpusSize)
	if err != nil {
		return nil, err
	}
	w := &corpusWorkload{e: e}
	w.buf, w.ends = renderLines(st.Events)
	ref := collector.New()
	for _, ev := range st.Events {
		ref.ObserveUnix(ev.Addr, ev.Time, int(ev.Server))
	}
	w.refSum = ref.Checksum()
	w.addrs = ref.NumAddrs()
	w.probes = probeSet(ref, e.seed, corpusProbes)
	return w, nil
}

// renderLines encodes events in the daemon's line format into one buffer.
func renderLines(evs []ingest.Event) ([]byte, []uint32) {
	buf := make([]byte, 0, len(evs)*48)
	ends := make([]uint32, len(evs))
	for i, ev := range evs {
		buf = ev.AppendText(buf)
		ends[i] = uint32(len(buf))
	}
	return buf, ends
}

// line returns line i without its newline.
func (w *corpusWorkload) line(i int) []byte {
	start := uint32(0)
	if i > 0 {
		start = w.ends[i-1]
	}
	return w.buf[start : w.ends[i]-1]
}

// probeSet draws n probes with their reference answers, shuffled.
func probeSet(ref *collector.Collector, seed int64, n int) []probe {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x9e3779b97f4a7c15))
	all := ref.AddressList()
	out := make([]probe, 0, n)
	answer := func(a addr.Addr) probe {
		rec, ok := ref.Get(a)
		return probe{a, ok, rec}
	}
	for len(out) < 3*n/4 {
		out = append(out, answer(all[rng.IntN(len(all))]))
	}
	for len(out) < 7*n/8 {
		a := all[rng.IntN(len(all))]
		a[15] ^= byte(1 + rng.IntN(255))
		if _, ok := ref.Get(a); !ok {
			out = append(out, answer(a))
		}
	}
	for len(out) < n {
		var a addr.Addr
		for i := range a {
			a[i] = byte(rng.Uint32())
		}
		if _, ok := ref.Get(a); !ok {
			out = append(out, answer(a))
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func (w *corpusWorkload) size() map[string]any {
	return map[string]any{
		"profile": "churn", "scale": corpusSize.Scale, "days": corpusSize.Days,
		"events": len(w.ends), "addrs": w.addrs, "probes": len(w.probes),
	}
}

// ingestRound is what one parse → pipeline → checkpoint → Close round
// measured.
type ingestRound struct {
	col                   *collector.Collector
	setupS, eps           float64
	parseNs, submitNs     float64
	closeMs               float64
	quiesceMs, chainMs    []float64
	chainBytes            int64
	fullBytes, deltaBytes int64
	batches, dropped      uint64
	bytesPerAddr          float64
}

func (w *corpusWorkload) ingestRound(tr *tracer, root int32, reg *telemetry.Registry, chain string) (*ingestRound, error) {
	cfg := ingest.DefaultConfig(nproc)
	cfg.Registry = reg
	r := &ingestRound{}
	t0 := time.Now()
	var pipe *ingest.Pipeline
	var err error
	tr.do("ingest.new", root, func() { pipe, err = ingest.New(cfg) })
	r.setupS = time.Since(t0).Seconds()
	if err != nil {
		return nil, err
	}
	n := len(w.ends)
	every := (n + corpusCheckpoints - 1) / corpusCheckpoints
	next := every
	b := pipe.NewBatcher()
	evs := make([]ingest.Event, 0, corpusBlock)
	var parse, submit time.Duration
	start := time.Now()
	for i := 0; i < n; {
		hi := min(i+corpusBlock, n, next)
		s := tr.begin("ingest.parse", root)
		p0 := time.Now()
		evs = evs[:0]
		for j := i; j < hi; j++ {
			ev, err := ingest.ParseEventBytes(w.line(j))
			if err != nil {
				pipe.Close()
				return nil, err
			}
			evs = append(evs, ev)
		}
		p1 := time.Now()
		tr.end(s)
		s = tr.begin("ingest.submit", root)
		for _, ev := range evs {
			b.Add(ev)
		}
		if hi == next {
			b.Flush()
		}
		p2 := time.Now()
		tr.end(s)
		parse += p1.Sub(p0)
		submit += p2.Sub(p1)
		i = hi
		if hi == next {
			next = min(next+every, n)
			q0 := time.Now()
			tr.do("ingest.quiesce", root, pipe.Quiesce)
			q1 := time.Now()
			var size int64
			tr.do("collector.checkpoint", root, func() { size, err = pipe.CheckpointChain(chain) })
			r.quiesceMs = append(r.quiesceMs, ms(q1.Sub(q0)))
			r.chainMs = append(r.chainMs, ms(time.Since(q1)))
			if err != nil {
				pipe.Close()
				return nil, err
			}
			r.chainBytes += size
		}
	}
	c0 := time.Now()
	tr.do("ingest.close", root, func() { r.col = pipe.Close() })
	end := time.Now()
	r.closeMs = ms(end.Sub(c0))
	r.eps = float64(n) / end.Sub(start).Seconds()
	r.parseNs = float64(parse.Nanoseconds()) / float64(n)
	r.submitNs = float64(submit.Nanoseconds()) / float64(n)
	m := pipe.Metrics()
	r.batches, r.dropped = m.Batches, m.Dropped
	r.bytesPerAddr = float64(r.col.MemoryFootprint()) / float64(r.col.NumAddrs())
	r.fullBytes, r.deltaBytes, err = chainFileSizes(chain)
	return r, err
}

// chainFileSizes splits a checkpoint chain on disk into its base and
// delta bytes.
func chainFileSizes(chain string) (full, deltas int64, err error) {
	st, err := os.Stat(chain)
	if err != nil {
		return 0, 0, err
	}
	files, err := filepath.Glob(chain + ".delta.*")
	if err != nil {
		return 0, 0, err
	}
	for _, f := range files {
		ds, err := os.Stat(f)
		if err != nil {
			return 0, 0, err
		}
		deltas += ds.Size()
	}
	return st.Size(), deltas, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func (w *corpusWorkload) measure(tr *tracer, o *outcome) (*pass, error) {
	p := newPass()
	var reg *telemetry.Registry
	if tr != nil {
		reg = telemetry.NewRegistry()
	}
	var setup []float64
	for i := 0; i < corpusExtraSetups; i++ {
		t0 := time.Now()
		pipe, err := ingest.New(ingest.DefaultConfig(nproc))
		setup = append(setup, time.Since(t0).Seconds())
		o.ops(1)
		if err != nil {
			return nil, err
		}
		pipe.Close()
	}

	// Cycles of ingest round → tier → probe pass → restore, each on a
	// fresh pipeline, chain and tier, so every metric's samples spread
	// over the whole run.
	pm := pager.NewMetrics(telemetry.NewRegistry())
	var rounds []*ingestRound
	var writeTierS, openMs, restoreS, peaks, lat, hit, miss []float64
	dl := after(w.e.seconds)
	for i := 0; i < corpusMinCycles || !dl.passed(); i++ {
		dir := filepath.Join(w.e.work, fmt.Sprintf("cycle-%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		chain := filepath.Join(dir, "corpus.snap")
		resetPeakRSS()
		tr.setRun(fmt.Sprintf("corpus-%d", i))
		root := tr.begin("corpus.round", -1)
		r, err := w.ingestRound(tr, root, reg, chain)
		tr.end(root)
		if err != nil {
			return nil, err
		}
		o.ops(int64(len(w.ends)) + int64(len(r.chainMs)) + 2)
		o.check(r.col.Checksum() == w.refSum, "cycle %d: Close checksum differs from the serial reference", i)
		o.fail(int64(r.dropped), "cycle %d: events dropped at admission", i)
		setup = append(setup, r.setupS)
		rounds = append(rounds, r)

		settle()
		corpus, err := w.tier(tr, r, filepath.Join(dir, "corpus.tier"), pm, &writeTierS, &openMs, o)
		if err != nil {
			return nil, err
		}
		settle()
		root = tr.begin("corpus.probe", -1)
		w.probePass(tr, root, corpus, &lat, &hit, &miss, o)
		tr.end(root)
		if err := corpus.Close(); err != nil {
			return nil, err
		}

		for j := 0; j < corpusRestores; j++ {
			settle()
			root = tr.begin("corpus.restore", -1)
			t := time.Now()
			var col *collector.Collector
			tr.do("ingest.restore", root, func() { col, err = ingest.RestoreChainFiles(chain) })
			restoreS = append(restoreS, time.Since(t).Seconds())
			tr.end(root)
			o.ops(1)
			if err != nil {
				return nil, err
			}
			o.check(col != nil && col.Checksum() == w.refSum, "cycle %d: restored chain checksum differs from the serial reference", i)
		}
		rss, err := peakRSSMB("self")
		if err != nil {
			return nil, err
		}
		peaks = append(peaks, rss)
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	pick := func(f func(r *ingestRound) float64) []float64 {
		xs := make([]float64, len(rounds))
		for i, r := range rounds {
			xs[i] = f(r)
		}
		return xs
	}
	var chainMs, quiesceMs []float64
	for _, r := range rounds {
		chainMs = append(chainMs, r.chainMs...)
		quiesceMs = append(quiesceMs, r.quiesceMs...)
	}
	const mb = 1 << 20
	p.e2e.set("setup_s", median(setup), "s")
	p.e2e.set("ingest_eps", median(pick(func(r *ingestRound) float64 { return r.eps })), "1/s")
	p.e2e.set("checkpoint_ms", median(chainMs), "ms")
	p.e2e.set("checkpoint_mb", median(pick(func(r *ingestRound) float64 { return float64(r.chainBytes) / mb })), "MiB")
	p.e2e.set("restore_s", median(restoreS), "s")
	// A snapshot here is what POST /snapshot does in ingestd: the cycle's
	// last CheckpointChain call, then a fresh tier written and opened.
	snapMs := make([]float64, len(rounds))
	refreshMs := make([]float64, len(rounds))
	for i, r := range rounds {
		refreshMs[i] = 1000*writeTierS[i] + openMs[i]
		snapMs[i] = r.chainMs[len(r.chainMs)-1] + refreshMs[i]
	}
	p.e2e.set("snapshot_ms", median(snapMs), "ms")
	p.e2e.set("peak_rss_mb", median(peaks), "MiB")
	p.detail["restore_s_all"] = restoreS
	p.detail["eps_all"] = pick(func(r *ingestRound) float64 { return r.eps })
	p.detail["samples"] = map[string]int{
		"setup_s": len(setup), "cycles": len(rounds), "checkpoints": len(chainMs), "probes": len(lat), "restores": len(restoreS),
	}

	p.layer.set("ingest.batches", median(pick(func(r *ingestRound) float64 { return float64(r.batches) })), "count")
	p.layer.set("ingest.dropped", median(pick(func(r *ingestRound) float64 { return float64(r.dropped) })), "count")
	p.layer.set("collector.checkpoint_write_ms", median(chainMs), "ms")
	p.layer.set("collector.full_mb", median(pick(func(r *ingestRound) float64 { return float64(r.fullBytes) / mb })), "MiB")
	p.layer.set("collector.delta_mb", median(pick(func(r *ingestRound) float64 { return float64(r.deltaBytes) / mb })), "MiB")
	p.layer.set("collector.b_per_addr", median(pick(func(r *ingestRound) float64 { return r.bytesPerAddr })), "B")
	p.layer.set("pager.tier_refresh_ms", median(refreshMs), "ms")
	// Lookup latency is per-layer: the daemon's GET /probe round trip,
	// which the same names report there, is almost all CPU time on a
	// shared 2-vCPU machine, and over ten seeds its quartile spread
	// (and its tail's, here too) exceeded the largest bound a gate may set.
	p.layer.set("lookup.p50_us", quantile(lat, 0.5), "us")
	p.layer.set("lookup.p99_us", blockTail(lat, 0.99), "us")
	p.layer.set("lookup.hit_us", median(hit), "us")
	p.layer.set("lookup.miss_us", median(miss), "us")
	p.detailLayer.set("ingest.parse_ns_per_event", median(pick(func(r *ingestRound) float64 { return r.parseNs })), "ns")
	p.detailLayer.set("ingest.submit_ns_per_event", median(pick(func(r *ingestRound) float64 { return r.submitNs })), "ns")
	p.detailLayer.set("ingest.close_ms", median(pick(func(r *ingestRound) float64 { return r.closeMs })), "ms")
	p.detailLayer.set("ingest.quiesce_ms", median(quiesceMs), "ms")
	p.detailLayer.set("pager.write_tier_s", median(writeTierS), "s")
	p.detailLayer.set("pager.open_ms", median(openMs), "ms")
	probes := float64(pm.Probes.Value())
	p.layer.set("pager.filter_skip_ratio", float64(pm.Skips.Value())/probes, "ratio")
	p.layer.set("pager.loads_per_probe", float64(pm.Loads.Value())/probes, "ratio")
	if reg != nil {
		s, err := scrape(reg)
		if err != nil {
			return nil, err
		}
		n := float64(len(rounds))
		p.layer.set("collector.merge_s", s.total("ingest_merge_seconds_sum")/n, "s")
		p.layer.set("ingest.shard_busy_s", s.total("ingest_batch_seconds_sum")/n, "s")
	}
	return p, nil
}

// tier writes a round's corpus as a tier file and opens it under a RAM
// budget of the tier size over corpusBudgetDiv. The round's collector is
// released once written.
func (w *corpusWorkload) tier(tr *tracer, r *ingestRound, path string, pm *pager.Metrics, writeS, openMs *[]float64, o *outcome) (*pager.Corpus, error) {
	root := tr.begin("corpus.tier", -1)
	defer tr.end(root)
	t0 := time.Now()
	var err error
	tr.do("pager.write_tier", root, func() { err = writeTierFile(r.col, path) })
	*writeS = append(*writeS, time.Since(t0).Seconds())
	r.col = nil
	o.ops(1)
	if err != nil {
		return nil, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	var corpus *pager.Corpus
	tr.do("pager.open", root, func() {
		corpus, err = pager.Open(path, pager.Options{RAMBudget: st.Size() / corpusBudgetDiv, Metrics: pm})
	})
	*openMs = append(*openMs, ms(time.Since(t1)))
	o.ops(1)
	return corpus, err
}

// probePass looks up every probe once, closed loop, timing each Get and
// checking its answer against the reference.
func (w *corpusWorkload) probePass(tr *tracer, root int32, corpus *pager.Corpus, lat, hit, miss *[]float64, o *outcome) {
	const block = 1024
	for i := 0; i < len(w.probes); i += block {
		s := tr.begin("pager.get", root)
		for _, pr := range w.probes[i:min(i+block, len(w.probes))] {
			t := time.Now()
			rec, ok, err := corpus.Get(pr.a)
			us := float64(time.Since(t).Nanoseconds()) / 1e3
			o.ops(1)
			if err != nil {
				o.fail(1, "Get %s: %v", pr.a, err)
				continue
			}
			*lat = append(*lat, us)
			if pr.found {
				*hit = append(*hit, us)
			} else {
				*miss = append(*miss, us)
			}
			o.check(ok == pr.found && rec == pr.rec, "Get %s = %v %+v, reference %v %+v", pr.a, ok, rec, pr.found, pr.rec)
		}
		tr.end(s)
	}
}

func writeTierFile(col *collector.Collector, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := pager.WriteTier(col, bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
