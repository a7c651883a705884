package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"

	"hitlist6/internal/addr"
	"hitlist6/internal/collector"
	"hitlist6/internal/ingest"
	"hitlist6/internal/workload"
)

// The daemon workload is cmd/ingestd as deployed: the paper profile
// arrives as UDP datagrams, open loop at a fixed event rate from one
// goroutine, while one keep-alive HTTP connection alternates closed-loop
// GET /probe with POST /snapshot (delta checkpoint plus tier refresh) on
// a fixed cadence. Only this workload reaches the socket reader and the
// daemon's checkpoint and tier-refresh glue, with reads beside writes.
var (
	daemonSize = workload.Size{Scale: 2, Days: 60}
	// daemonBase is how many leading events of the stream form the
	// corpus ingestd restores at start; the run sends the events after
	// them, so snapshots rewrite a corpus that grows by under half.
	daemonBase = 300000
)

const (
	// daemonRate is the open-loop send rate in events per second.
	daemonRate = 10000
	// daemonSendShare is the share of --seconds spent sending.
	daemonSendShare = 0.8
	// daemonDatagram bounds one datagram's payload.
	daemonDatagram = 1400
	// daemonSnapEvery is the POST /snapshot cadence.
	daemonSnapEvery = time.Second
	// daemonBudget is ingestd's -corpus.rambudget, far below the tier
	// size the send phase builds.
	daemonBudget = 64 << 20
	// daemonStarts is how many times set-up starts ingestd; setup_s is
	// the median, and the last start serves the run. daemonRestarts is
	// how many times the run's daemon is then restarted on its own
	// checkpoint chain; restore_s is the median.
	daemonStarts   = 11
	daemonRestarts = 21
	// daemonProbeKeys is the probe key set: three quarters drawn from
	// daemonHotKeys canonically adjacent addresses of the base corpus and
	// a quarter absent random ones (see corpusProbes for why not half).
	// daemonVerify is how many sent addresses are
	// probed after the final snapshot and checked against the reference.
	daemonProbeKeys = 4096
	daemonHotKeys   = 2048
	daemonVerify    = 2000
)

type daemonWorkload struct {
	e         env
	datagrams [][]byte
	events    int
	sendFor   time.Duration
	baseSnap  string   // checkpoint of the base corpus ingestd restores
	probes    []string // /probe request paths
	verify    []probe  // sent addresses and their reference records
	addrs     int
}

func newDaemonWorkload(e env) (benchWorkload, error) {
	if _, err := os.Stat(e.ingestd); err != nil {
		return nil, fmt.Errorf("ingestd binary: %w", err)
	}
	prof, ok := workload.Lookup("paper")
	if !ok {
		return nil, fmt.Errorf("no paper profile")
	}
	st, err := prof.Stream(e.seed, daemonSize)
	if err != nil {
		return nil, err
	}
	w := &daemonWorkload{e: e, sendFor: time.Duration(e.seconds * daemonSendShare * float64(time.Second))}
	w.events = int(w.sendFor.Seconds() * daemonRate)
	if daemonBase+w.events > len(st.Events) {
		return nil, fmt.Errorf("paper stream has %d events, the run needs %d", len(st.Events), daemonBase+w.events)
	}
	base, sent := st.Events[:daemonBase], st.Events[daemonBase:daemonBase+w.events]

	// The corpus every start of ingestd restores, built serially so the
	// file is the same bytes for the same seed.
	ref := collector.New()
	for _, ev := range base {
		ref.ObserveUnix(ev.Addr, ev.Time, int(ev.Server))
	}
	w.baseSnap = filepath.Join(e.work, "base.snap")
	if _, err := ingest.AtomicWriteFile(w.baseSnap, ref.Snapshot); err != nil {
		return nil, err
	}

	var dg, line []byte
	for _, ev := range sent {
		line = ev.AppendText(line[:0])
		if len(dg)+len(line) > daemonDatagram {
			w.datagrams = append(w.datagrams, dg)
			dg = nil
		}
		dg = append(dg, line...)
	}
	w.datagrams = append(w.datagrams, dg)

	rng := rand.New(rand.NewPCG(uint64(e.seed), 0xda3e0))
	// The hot set is one tier chunk's worth of base addresses adjacent in
	// canonical order, so a tier refresh costs the probes that follow it
	// one cold chunk load rather than a load per chunk.
	var canon []addr.Addr
	ref.AddrsCanonical(func(a addr.Addr, _ collector.AddrRecord) bool {
		canon = append(canon, a)
		return true
	})
	start := rng.IntN(max(1, len(canon)-daemonHotKeys))
	hot := canon[start:min(start+daemonHotKeys, len(canon))]
	for len(w.probes) < daemonProbeKeys {
		a := hot[rng.IntN(len(hot))]
		if !w.present(len(w.probes)) {
			for i := range a {
				a[i] = byte(rng.Uint32())
			}
		}
		w.probes = append(w.probes, "/probe?addr="+url.QueryEscape(a.String()))
	}

	for _, ev := range sent {
		ref.ObserveUnix(ev.Addr, ev.Time, int(ev.Server))
	}
	w.addrs = ref.NumAddrs()
	for len(w.verify) < daemonVerify {
		a := sent[rng.IntN(len(sent))].Addr
		rec, _ := ref.Get(a)
		w.verify = append(w.verify, probe{a, true, rec})
	}
	return w, nil
}

func (w *daemonWorkload) size() map[string]any {
	return map[string]any{
		"profile": "paper", "scale": daemonSize.Scale, "days": daemonSize.Days,
		"base_events": daemonBase, "events": w.events, "datagrams": len(w.datagrams), "addrs": w.addrs,
		"rate_eps": daemonRate, "send_s": w.sendFor.Seconds(),
	}
}

// ingestd is one running daemon process.
type ingestd struct {
	cmd      *exec.Cmd
	httpAddr string
	udpAddr  string
	exited   chan struct{}
	client   *http.Client
}

// startIngestd execs the daemon on loopback ports it picks itself and
// returns once /readyz answers 200.
func startIngestd(bin, snapDir string) (*ingestd, error) {
	cmd := exec.Command(bin,
		"-udp", "127.0.0.1:0", "-listen", "127.0.0.1:0",
		"-snapshot.dir", snapDir, "-snapshot.delta",
		"-corpus.rambudget", strconv.Itoa(daemonBudget),
		// No live-view merge ticker: every POST /snapshot merges, once a
		// second. A 2 s ticker beside it aliases with that cadence, so
		// every other checkpoint finds part of its second already merged,
		// at a phase that differs from run to run.
		"-snapshot", "0",
		"-shards", strconv.Itoa(nproc), "-log.format", "json")
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(nproc))
	// A benchmark killed mid-run takes its daemon with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &ingestd{
		cmd:    cmd,
		exited: make(chan struct{}),
		client: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
			Timeout:   30 * time.Second,
		},
	}
	// The log reader learns both listen addresses, then keeps draining
	// stderr so the daemon never blocks on a log write.
	addrs := make(chan [2]string, 1)
	go func() {
		defer close(d.exited)
		var httpAddr, udpAddr string
		sent := false
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			var rec struct {
				Msg  string `json:"msg"`
				Addr string `json:"addr"`
			}
			if sent || json.Unmarshal(sc.Bytes(), &rec) != nil {
				continue
			}
			switch rec.Msg {
			case "serving":
				httpAddr = rec.Addr
			case "ingesting event datagrams":
				udpAddr = rec.Addr
			}
			if httpAddr != "" && udpAddr != "" {
				addrs <- [2]string{httpAddr, udpAddr}
				sent = true
			}
		}
		_ = cmd.Wait() // the exit status of a stopped daemon carries no information
	}()
	select {
	case a := <-addrs:
		d.httpAddr, d.udpAddr = a[0], a[1]
	case <-d.exited:
		return nil, fmt.Errorf("ingestd exited during start-up")
	case <-time.After(60 * time.Second):
		d.stop()
		return nil, fmt.Errorf("ingestd did not log its listen addresses")
	}
	for limit := time.Now().Add(60 * time.Second); ; {
		if code, _, err := d.get("/readyz"); err == nil && code == http.StatusOK {
			return d, nil
		}
		if time.Now().After(limit) {
			d.stop()
			return nil, fmt.Errorf("ingestd not ready")
		}
		time.Sleep(time.Millisecond)
	}
}

func (d *ingestd) url(path string) string { return "http://" + d.httpAddr + path }

// get issues a GET and reads the whole body.
func (d *ingestd) get(path string) (int, []byte, error) {
	resp, err := d.client.Get(d.url(path))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

func (d *ingestd) snapshot() (int, error) {
	resp, err := d.client.Post(d.url("/snapshot"), "text/plain", nil)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, err
}

func (d *ingestd) scrape() (series, error) {
	code, body, err := d.get("/metrics")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("/metrics: HTTP %d", code)
	}
	return parseExposition(string(body))
}

// stop terminates the daemon and waits until it has exited.
func (d *ingestd) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // an already exited process needs no signal
	select {
	case <-d.exited:
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill() // last resort; the wait below reaps it
		<-d.exited
	}
	d.client.CloseIdleConnections()
}

func (w *daemonWorkload) measure(tr *tracer, o *outcome) (*pass, error) {
	// The load generator needs one thread; more would only compete with
	// ingestd's own GOMAXPROCS threads for the same cores.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	p := newPass()
	// d is the daemon running now; every way out stops it and waits.
	var d *ingestd
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	tr.setRun("daemon-start")
	root := tr.begin("daemon.start", -1)
	var setup []float64
	var dir string
	for i := 0; i < daemonStarts; i++ {
		if d != nil {
			d.stop()
			d = nil
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
		var err error
		dir, err = os.MkdirTemp(w.e.work, "snap-")
		if err == nil {
			err = copyFile(w.baseSnap, filepath.Join(dir, "corpus.snap"))
		}
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		tr.do("ingestd.start", root, func() { d, err = startIngestd(w.e.ingestd, dir) })
		setup = append(setup, time.Since(t0).Seconds())
		o.ops(1)
		if err != nil {
			return nil, err
		}
	}
	tr.end(root)
	before, err := d.scrape()
	if err != nil {
		return nil, err
	}
	conn, err := net.Dial("udp", d.udpAddr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()

	tr.setRun("daemon-run")
	root = tr.begin("daemon.run", -1)
	start := time.Now()
	var wg sync.WaitGroup
	lateMs := make([]float64, len(w.datagrams))
	sendErrs := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		gap := w.sendFor / time.Duration(len(w.datagrams))
		for i, dg := range w.datagrams {
			due := start.Add(time.Duration(i) * gap)
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			s := tr.begin("udp.send", root)
			if _, err := conn.Write(dg); err != nil {
				sendErrs++
			}
			tr.end(s)
			lateMs[i] = ms(time.Since(due))
		}
	}()

	const mb = 1 << 20
	var probeUs, hitUs, missUs, snapMs, ckptMs, refreshMs, fullMB []float64
	var deltaMB float64
	probeFails, snapFails, scrapeFails := 0, 0, 0
	last := before
	nextSnap := start
	for i := 0; time.Since(start) < w.sendFor; {
		if !time.Now().Before(nextSnap) {
			nextSnap = nextSnap.Add(daemonSnapEvery)
			t := time.Now()
			var code int
			tr.do("http.snapshot", root, func() { code, err = d.snapshot() })
			if err != nil || code != http.StatusOK {
				snapFails++
				continue
			}
			snap := ms(time.Since(t))
			snapMs = append(snapMs, snap)
			// The daemon's own series split the round trip: the checkpoint
			// it timed, the bytes that wrote, and the tier refresh after.
			cur, err := d.scrape()
			if err != nil {
				scrapeFails++
				continue
			}
			sd := delta(last, cur)
			last = cur
			if sd.total("ingest_checkpoint_seconds_count") != 1 {
				continue
			}
			ck := 1000 * sd.total("ingest_checkpoint_seconds_sum")
			ckptMs = append(ckptMs, ck)
			refreshMs = append(refreshMs, snap-ck)
			written := sd.total("ingest_checkpoint_written_bytes_sum") / mb
			if sd.total("ingest_delta_checkpoints_total") == 1 {
				deltaMB += written
			} else {
				fullMB = append(fullMB, written)
			}
			continue
		}
		t := time.Now()
		var code int
		key := i % len(w.probes)
		tr.do("http.probe", root, func() { code, _, err = d.get(w.probes[key]) })
		i++
		if err != nil || code != http.StatusOK {
			probeFails++
			continue
		}
		us := float64(time.Since(t).Nanoseconds()) / 1e3
		probeUs = append(probeUs, us)
		if w.present(key) {
			hitUs = append(hitUs, us)
		} else {
			missUs = append(missUs, us)
		}
	}
	wg.Wait()
	tr.end(root)
	o.ops(int64(w.events) + int64(len(probeUs)+probeFails+len(snapMs)+snapFails))
	o.fail(int64(probeFails), "probes without HTTP 200")
	o.fail(int64(snapFails), "snapshots without HTTP 200")
	o.fail(int64(scrapeFails), "/metrics scrapes after a snapshot failed")
	o.fail(int64(sendErrs), "datagram sends failed")

	// Drain: wait until the socket reader has parsed every sent event (or
	// stops advancing), let its flush tick pass, then take the final
	// snapshot the verification probes read.
	tr.setRun("daemon-verify")
	root = tr.begin("daemon.verify", -1)
	seen, parsedBy, err := w.drain(d, before)
	if err != nil {
		return nil, err
	}
	code, err := d.snapshot()
	o.ops(1)
	if err != nil || code != http.StatusOK {
		return nil, fmt.Errorf("final snapshot: HTTP %d: %v", code, err)
	}
	after, err := d.scrape()
	if err != nil {
		return nil, err
	}
	dm := delta(before, after)
	lost := deliveryCheck(w.events, seen, dm, o)
	w.verifyProbes(d, tr, root, lost, o)
	tr.end(root)
	rss, err := peakRSSMB(strconv.Itoa(d.cmd.Process.Pid))
	if err != nil {
		return nil, err
	}

	// Restarts on the run's checkpoint chain: the daemon times its own
	// restore, and after the last one the sampled addresses must still
	// answer with their reference records. Each restart gets a fresh copy
	// of the chain as the run left it, since a daemon's shutdown
	// checkpoint lengthens the chain the next start would restore.
	d.stop()
	d = nil
	tr.setRun("daemon-restart")
	root = tr.begin("daemon.restart", -1)
	var restoreS []float64
	rdir := filepath.Join(w.e.work, "restart")
	for i := 0; i < daemonRestarts; i++ {
		if d != nil {
			d.stop()
			d = nil
		}
		err := os.RemoveAll(rdir)
		if err == nil {
			err = os.Mkdir(rdir, 0o755)
		}
		if err == nil {
			err = copyDir(dir, rdir)
		}
		if err != nil {
			return nil, err
		}
		tr.do("ingestd.restart", root, func() { d, err = startIngestd(w.e.ingestd, rdir) })
		o.ops(1)
		if err != nil {
			return nil, err
		}
		s, err := d.scrape()
		if err != nil {
			return nil, err
		}
		restoreS = append(restoreS, s.total("ingestd_restore_seconds_sum"))
	}
	w.verifyProbes(d, tr, root, lost, o)
	tr.end(root)

	sumFull := 0.0
	for _, x := range fullMB {
		sumFull += x
	}
	p.e2e.set("setup_s", median(setup), "s")
	// Open loop: the daemon keeps up as long as this is the send rate;
	// it drops below only when parsing falls behind or events are lost.
	p.e2e.set("ingest_eps", seen/parsedBy.Sub(start).Seconds(), "1/s")
	p.e2e.set("checkpoint_ms", median(ckptMs), "ms")
	p.e2e.set("checkpoint_mb", sumFull+deltaMB, "MiB")
	p.e2e.set("restore_s", median(restoreS), "s")
	p.e2e.set("snapshot_ms", median(snapMs), "ms")
	p.e2e.set("peak_rss_mb", rss, "MiB")
	p.detail["samples"] = map[string]int{
		"setup_s": len(setup), "probes": len(probeUs), "snapshots": len(snapMs),
		"full_checkpoints": len(fullMB), "restores": len(restoreS),
	}
	p.detail["generator_late_ms"] = map[string]float64{
		"p50": quantile(lateMs, 0.5), "p99": quantile(lateMs, 0.99), "max": quantile(lateMs, 1),
	}
	p.detail["lost_events"] = lost
	p.detail["snap_ms_all"] = snapMs
	p.detail["checkpoint_ms_all"] = ckptMs
	p.detail["restore_s_all"] = restoreS

	probes := dm.total("corpus_filter_probes_total")
	p.layer.set("ingest.batches", dm.total("ingest_batches_total"), "count")
	p.layer.set("ingest.dropped", dm.total("ingest_events_dropped_total"), "count")
	p.layer.set("ingest.shard_busy_s", dm.total("ingest_batch_seconds_sum"), "s")
	p.layer.set("collector.merge_s", dm.total("ingest_merge_seconds_sum"), "s")
	p.layer.set("collector.checkpoint_write_ms", median(ckptMs), "ms")
	p.layer.set("collector.full_mb", median(fullMB), "MiB")
	p.layer.set("collector.delta_mb", deltaMB, "MiB")
	p.layer.set("collector.b_per_addr", after.total("ingest_corpus_bytes")/after.total("ingest_corpus_addresses"), "B")
	p.layer.set("pager.tier_refresh_ms", median(refreshMs), "ms")
	p.layer.set("pager.filter_skip_ratio", dm.total("corpus_filter_skips_total")/probes, "ratio")
	p.layer.set("pager.loads_per_probe", dm.total("corpus_chunk_loads_total")/probes, "ratio")
	p.layer.set("lookup.p50_us", quantile(probeUs, 0.5), "us")
	p.layer.set("lookup.p99_us", blockTail(probeUs, 0.99), "us")
	p.layer.set("lookup.hit_us", median(hitUs), "us")
	p.layer.set("lookup.miss_us", median(missUs), "us")
	p.detailLayer.set("udp.datagrams", dm.total("ingest_udp_datagrams_total"), "count")
	p.detailLayer.set("udp.events_per_read", seen/dm.total("ingest_udp_batch_events_count"), "ratio")
	p.detailLayer.set("daemon.lost_events", float64(lost), "count")
	p.detailLayer.set("daemon.send_late_p99_ms", quantile(lateMs, 0.99), "ms")
	p.detailLayer.set("daemon.send_late_max_ms", quantile(lateMs, 1), "ms")
	return p, nil
}

// present reports whether probe key i is a base address (the rest are
// absent random keys).
func (w *daemonWorkload) present(i int) bool { return i%4 != 3 }

// deliveryCheck accounts for the send phase and returns the events
// lost: a sent event the daemon never parsed is a failed operation; a
// malformed line, or a parsed event the shards did not process, is a
// wrong output. dm holds the /metrics deltas over the run.
func deliveryCheck(sent int, seen float64, dm series, o *outcome) int64 {
	lost := int64(sent) - int64(seen)
	o.fail(lost, "events lost between the sender and the daemon's parser")
	o.check(dm.total("ingestd_malformed_lines") == 0, "ingestd counted %v malformed lines", dm.total("ingestd_malformed_lines"))
	o.check(dm.total("ingest_events_processed_total") == seen,
		"ingestd processed %v events, parsed %v", dm.total("ingest_events_processed_total"), seen)
	return lost
}

// drain waits until ingestd has parsed every sent event, or its count
// has stopped moving for a second, and returns the count and when it
// last moved. It then waits out the reader's flush interval so parsed
// events reach the shards.
func (w *daemonWorkload) drain(d *ingestd, before series) (float64, time.Time, error) {
	var seen float64
	moved := time.Now()
	for {
		s, err := d.scrape()
		if err != nil {
			return 0, moved, err
		}
		n := s.total("ingest_udp_events_total") - before.total("ingest_udp_events_total")
		if n != seen {
			seen, moved = n, time.Now()
		}
		if int(seen) >= w.events || time.Since(moved) > time.Second {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	time.Sleep(200 * time.Millisecond)
	return seen, moved, nil
}

// verifyProbes checks sampled sent addresses against the reference after
// the final snapshot. With no event lost every answer must match; with
// losses a differing answer may be a lost event, so it counts as a
// failed operation rather than a wrong output.
func (w *daemonWorkload) verifyProbes(d *ingestd, tr *tracer, root int32, lost int64, o *outcome) {
	for _, pr := range w.verify {
		var code int
		var body []byte
		var err error
		tr.do("http.verify", root, func() { code, body, err = d.get("/probe?addr=" + url.QueryEscape(pr.a.String())) })
		o.ops(1)
		if err != nil || code != http.StatusOK {
			o.fail(1, "verify probe %s: HTTP %d: %v", pr.a, code, err)
			continue
		}
		var got struct {
			Found bool   `json:"found"`
			First int64  `json:"first"`
			Last  int64  `json:"last"`
			Count uint32 `json:"count"`
		}
		if err := json.Unmarshal(body, &got); err != nil {
			o.check(false, "verify probe %s: %v", pr.a, err)
			continue
		}
		ok := got.Found && got.First == pr.rec.First && got.Last == pr.rec.Last && got.Count == pr.rec.Count
		if lost > 0 {
			if !ok {
				o.fail(1, "verify probe %s after lost events", pr.a)
			}
			continue
		}
		o.check(ok, "probe %s = %+v, reference %+v", pr.a, got, pr.rec)
	}
}

// copyDir copies the regular files of directory src into dst.
func copyDir(src, dst string) error {
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if e.Type().IsRegular() {
			if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
				return err
			}
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	b, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, b, 0o644)
}
