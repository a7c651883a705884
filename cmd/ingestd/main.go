// Command ingestd runs the sharded ingest pipeline as a daemon: it
// consumes an NTP query-event stream — a file (or stdin), a UDP socket,
// or a simulated replay — fans it out across collector shards with
// inline enrichment (addressing categories, HyperLogLog cardinality,
// the per-AS outage series), and serves live summaries over HTTP. It is
// the single-vantage deployment shape of the paper's 27-server passive
// collection: one ingestd per pool server, snapshots merging into the
// live store that the stat endpoints read.
//
// The outage detector is the paper's headline hitlist application run
// live: the same single pass that builds the corpus feeds a per-AS
// time-binned series, and a periodic detector scans its rolling window
// for ASes that went dark — served at /outages, no probes sent.
//
// Event lines are `<unix-seconds> <ipv6-address> [<server-index>]`.
//
// Usage:
//
//	ingestd -file events.log            # replay a file, then keep serving
//	ingestd -file -                     # read stdin
//	ingestd -udp :9123                  # ingest datagrams of event lines
//	ingestd -sim -sim.scale 0.1         # generate a simnet replay stream
//
// HTTP surface (default :8629):
//
//	/stats          live pipeline and corpus summary (JSON)
//	/outages        latest outage-detector scan (JSON)
//	/snapshot       POST: write a durable corpus checkpoint now
//	/metrics        Prometheus text exposition of every registered series
//	/healthz        liveness: 200 while the process runs
//	/readyz         readiness: 200 once restore finished and the pipeline
//	                accepts events; 503 while starting or shutting down
//	/debug/events   bounded ring of recent operational events (JSON)
//	/debug/pprof/   CPU, heap, goroutine and trace profiles
//
// With -snapshot.dir the corpus is durable. Every checkpoint — each
// -snapshot.every tick, each POST /snapshot and the one at shutdown —
// extends one delta chain: corpus.snap is a full base, and
// corpus.snap.delta.NNNNNN carry the record blocks dirtied since; every
// 16 deltas the chain folds into a fresh base. On start the daemon
// restores base plus chain, or starts empty with a warning when the
// chain is unusable. -snapshot.delta is accepted and ignored.
//
// Logs are structured (slog): -log.format selects text or json,
// -log.level the threshold. Every log record is also captured in the
// /debug/events ring. SIGINT/SIGTERM shut down gracefully: sources
// stop, in-flight events drain, a final checkpoint is written when
// -snapshot.dir is set, and the HTTP listener closes cleanly.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"hitlist6/internal/addr"
	"hitlist6/internal/asdb"
	"hitlist6/internal/collector"
	"hitlist6/internal/ingest"
	"hitlist6/internal/ntppool"
	"hitlist6/internal/outage"
	"hitlist6/internal/pager"
	"hitlist6/internal/simnet"
	"hitlist6/internal/telemetry"
)

// daemon ties the pipeline to its operational surface: the HTTP
// handlers, the health gate, the structured log (mirrored into the
// events ring) and the shutdown sequence. main builds exactly one;
// tests build throwaway ones around in-memory pipelines.
type daemon struct {
	pipe   *ingest.Pipeline
	reg    *telemetry.Registry
	health *telemetry.Health
	ring   *telemetry.EventRing
	log    *slog.Logger

	routes    *asdb.DB   // nil: outage detection disabled
	udp       *udpSource // nil: not ingesting from a socket
	outWindow int
	snapPath  string // "": durable snapshots disabled

	// Tiered corpus (-corpus.rambudget; see tier.go). tierMu serializes
	// every access to tier, including swapping it for a fresh file after a
	// checkpoint.
	ramBudget int64  // 0: tiering disabled
	tierPath  string // "": tiering disabled
	pagerMet  *pager.Metrics
	tierMu    sync.Mutex
	tier      *pager.Corpus // nil until the first tier file exists

	badLines      atomic.Uint64
	latestOutages atomic.Pointer[outagesReply]

	// stopSource interrupts the active event source (close the UDP
	// socket, close the replay file); nil when the source cannot be
	// interrupted (sim replay, stdin). sourceDone closes when the source
	// goroutine exits.
	stopSource func()
	sourceDone chan struct{}
}

// newMux wires the daemon's full HTTP surface (see the package comment
// for the endpoint map).
func (d *daemon) newMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/stats", d.handleStats)
	mux.HandleFunc("/outages", d.handleOutages)
	mux.HandleFunc("/snapshot", d.handleSnapshot)
	mux.HandleFunc("/probe", d.handleProbe)
	mux.Handle("/metrics", d.reg.Handler())
	mux.Handle("/healthz", d.health.LivenessHandler())
	mux.Handle("/readyz", d.health.ReadinessHandler())
	mux.Handle("/debug/events", d.ring)
	// net/http/pprof registers on DefaultServeMux at import; this mux is
	// private, so route the profile handlers explicitly.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func (d *daemon) handleStats(w http.ResponseWriter, _ *http.Request) {
	reply := buildStats(d.pipe, d.udp)
	reply.Tier = d.tierStats()
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(reply); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (d *daemon) handleOutages(w http.ResponseWriter, _ *http.Request) {
	if d.routes == nil {
		http.Error(w, "outage detection disabled (-outage.bin 0)", http.StatusNotFound)
		return
	}
	reply := d.latestOutages.Load()
	if reply == nil {
		// Nothing detected yet (first tick pending): scan on demand so
		// the endpoint is never stale-empty.
		reply = detectOutages(d.pipe, d.outWindow)
		d.latestOutages.Store(reply)
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(reply); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (d *daemon) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if d.snapPath == "" {
		http.Error(w, "snapshots disabled (no -snapshot.dir)", http.StatusNotFound)
		return
	}
	if r.Method != http.MethodPost {
		http.Error(w, "POST triggers a snapshot", http.StatusMethodNotAllowed)
		return
	}
	start := time.Now()
	size, err := d.checkpointNow()
	if err != nil {
		d.log.Error("snapshot failed", "path", d.snapPath, "error", err)
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	d.log.Info("snapshot written", "path", d.snapPath, "bytes", size)
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(snapshotReply{
		Path:   d.snapPath,
		Bytes:  size,
		Millis: time.Since(start).Milliseconds(),
	}); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// checkpointNow writes one durable checkpoint on the delta chain — a
// full base or a delta of the blocks dirtied since the last one (see
// ingest.Pipeline.CheckpointChain) — and, when the tiered corpus is
// enabled, refreshes the tier file to match. A tier refresh failure is
// logged but does not fail the checkpoint: the durable corpus is the
// artifact that matters; the tier is a rebuildable query index.
func (d *daemon) checkpointNow() (int64, error) {
	size, err := d.pipe.CheckpointChain(d.snapPath)
	if err != nil {
		return 0, err
	}
	if d.tierPath != "" {
		if terr := d.refreshTier(); terr != nil {
			d.log.Error("tier refresh failed", "path", d.tierPath, "error", terr)
		}
	}
	return size, nil
}

// shutdown drains the daemon in dependency order: flip readiness off
// (load balancers stop routing), stop the event source and wait for it
// when it is interruptible, fence in-flight events with a quiesce,
// write the final durable checkpoint — everything since the last
// periodic tick would otherwise be lost to a clean exit — and close the
// HTTP listener. srv may be nil (tests exercising the drain alone).
func (d *daemon) shutdown(srv *http.Server) {
	d.health.SetNotReady("shutting down")
	if d.stopSource != nil {
		d.stopSource()
		select {
		case <-d.sourceDone:
		case <-time.After(10 * time.Second):
			d.log.Warn("event source did not stop; checkpointing anyway")
		}
	}
	d.pipe.Quiesce()
	if d.snapPath != "" {
		if size, err := d.checkpointNow(); err != nil {
			d.log.Error("final checkpoint failed", "path", d.snapPath, "error", err)
		} else {
			d.log.Info("final checkpoint", "path", d.snapPath, "bytes", size)
		}
	}
	if srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			d.log.Warn("http shutdown", "error", err)
		}
	}
	m := d.pipe.Metrics()
	d.log.Info("ingestd exiting",
		"processed", m.Processed, "dropped", m.Dropped,
		"malformed", d.badLines.Load(),
		"unique_addrs", d.pipe.Store().NumAddrs(),
		"corpus_mb", fmt.Sprintf("%.1f", float64(m.CorpusBytes)/(1<<20)))
}

func main() {
	var (
		listen    = flag.String("listen", ":8629", "HTTP listen address")
		file      = flag.String("file", "", "event file to replay ('-' for stdin)")
		udp       = flag.String("udp", "", "UDP listen address for event datagrams")
		sim       = flag.Bool("sim", false, "generate a simnet replay stream instead of external input")
		simScale  = flag.Float64("sim.scale", 0.1, "simnet population scale")
		simDays   = flag.Int("sim.days", 30, "simnet study window in days")
		simSeed   = flag.Int64("sim.seed", 1, "simnet world seed")
		shards    = flag.Int("shards", 0, "collector shards (0 = one per CPU, capped at 8)")
		batch     = flag.Int("batch", 0, "events per batch (0 = default)")
		queue     = flag.Int("queue", 0, "per-shard queue depth in batches (0 = default)")
		drop      = flag.Bool("drop", false, "shed events when a shard queue is full instead of blocking")
		snapshot  = flag.Duration("snapshot", 2*time.Second, "live-view snapshot interval")
		hllPrec   = flag.Uint("hll", 14, "HyperLogLog precision (4-16)")
		serverCp  = flag.Int("servers", collector.MaxServers, "vantage-server attribution cap")
		outBin    = flag.Duration("outage.bin", time.Hour, "outage series bin width (whole seconds; 0 disables the outage consumer)")
		outEvery  = flag.Duration("outage.every", 30*time.Second, "how often the live outage detector rescans the series")
		outWindow = flag.Int("outage.window", 0, "rolling detection window in complete bins (0 = whole series)")
		snapDir   = flag.String("snapshot.dir", "", "directory for durable corpus snapshots (restore on start, checkpoint while running)")
		snapEvery = flag.Duration("snapshot.every", 0, "how often to checkpoint the corpus into -snapshot.dir (0 = only on /snapshot)")
		ramBudget = flag.Int64("corpus.rambudget", 0, "tiered-corpus RAM budget in bytes for /probe chunk residency (0 disables tiering)")
		logLevel  = flag.String("log.level", "info", "log threshold: debug, info, warn or error")
		logFormat = flag.String("log.format", "text", "log encoding: text or json")
		eventsCap = flag.Int("debug.events", telemetry.DefaultEventRingSize, "recent-events ring capacity for /debug/events")
	)
	// Accepted so existing command lines keep working; checkpoints always
	// run the delta chain.
	flag.Bool("snapshot.delta", false, "ignored: checkpoints always run the delta chain")
	flag.Parse()

	ring := telemetry.NewEventRing(*eventsCap)
	logger, err := telemetry.NewLogger(telemetry.LogOptions{
		Level: *logLevel, Format: *logFormat, Ring: ring,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ingestd:", err)
		os.Exit(2)
	}

	sources := 0
	for _, on := range []bool{*file != "", *udp != "", *sim} {
		if on {
			sources++
		}
	}
	if sources != 1 {
		fmt.Fprintln(os.Stderr, "ingestd: exactly one of -file, -udp, -sim required")
		flag.Usage()
		os.Exit(2)
	}
	if *hllPrec < 4 || *hllPrec > 16 {
		fmt.Fprintf(os.Stderr, "ingestd: -hll %d out of [4,16]\n", *hllPrec)
		os.Exit(2)
	}
	if *outBin < 0 || *outBin%time.Second != 0 {
		fmt.Fprintf(os.Stderr, "ingestd: -outage.bin %v must be a non-negative whole number of seconds\n", *outBin)
		os.Exit(2)
	}
	if *outBin > 0 && *outEvery <= 0 {
		fmt.Fprintf(os.Stderr, "ingestd: -outage.every %v must be positive\n", *outEvery)
		os.Exit(2)
	}
	if *snapEvery < 0 {
		fmt.Fprintf(os.Stderr, "ingestd: -snapshot.every %v must be non-negative\n", *snapEvery)
		os.Exit(2)
	}
	if *snapEvery > 0 && *snapDir == "" {
		fmt.Fprintln(os.Stderr, "ingestd: -snapshot.every needs -snapshot.dir")
		os.Exit(2)
	}
	if *ramBudget < 0 {
		fmt.Fprintf(os.Stderr, "ingestd: -corpus.rambudget %d must be non-negative\n", *ramBudget)
		os.Exit(2)
	}
	if *ramBudget > 0 && *snapDir == "" {
		fmt.Fprintln(os.Stderr, "ingestd: -corpus.rambudget needs -snapshot.dir")
		os.Exit(2)
	}

	// The outage consumer needs a routing table to attribute events to
	// ASes. BuildASDB yields the same table a full world build would
	// (attribution-identical; see simnet.BuildASDB), without blocking
	// daemon startup on world construction — the sim replay builds its
	// world later, on the replay goroutine.
	var routes *asdb.DB
	if *outBin > 0 {
		db, err := simnet.BuildASDB(simnet.DefaultConfig(*simSeed, 1))
		if err != nil {
			logger.Error("routing table", "error", err)
			os.Exit(1)
		}
		routes = db
	}

	// The registry exists before the pipeline so startup work (the
	// checkpoint restore) is already on the record when /metrics comes up.
	reg := telemetry.NewRegistry()
	health := telemetry.NewHealth()

	cfg := ingest.Config{
		Shards:           *shards,
		BatchSize:        *batch,
		QueueDepth:       *queue,
		DropOnFull:       *drop,
		SnapshotInterval: *snapshot,
		ServerCap:        *serverCp,
		Registry:         reg,
		Stages: []ingest.StageFactory{
			ingest.Categories(),
			ingest.Cardinality(uint8(*hllPrec)),
		},
	}
	snapPath := ""
	if *snapDir != "" {
		if err := os.MkdirAll(*snapDir, 0o755); err != nil {
			logger.Error("snapshot dir", "error", err)
			os.Exit(1)
		}
		snapPath = snapshotPath(*snapDir)
		restoreSeconds := reg.Histogram("ingestd_restore_seconds",
			"Wall time restoring the corpus checkpoint at startup.",
			telemetry.DurationBuckets())
		start := time.Now()
		cfg.Seed = restoreOrEmpty(snapPath, func(format string, args ...any) {
			msg := fmt.Sprintf(format, args...)
			if strings.Contains(msg, "WARNING") {
				logger.Warn(msg)
			} else {
				logger.Info(msg)
			}
		})
		restoreSeconds.ObserveDuration(time.Since(start))
		cfg.CheckpointPath = snapPath
		cfg.CheckpointInterval = *snapEvery
	}
	if routes != nil {
		cfg.Stages = append(cfg.Stages, ingest.OutageSeriesLive(routes, *outBin))
	}
	pipe, err := ingest.New(cfg)
	if err != nil {
		logger.Error("pipeline", "error", err)
		os.Exit(1)
	}

	d := &daemon{
		pipe: pipe, reg: reg, health: health, ring: ring, log: logger,
		routes: routes, outWindow: *outWindow, snapPath: snapPath,
	}
	if *ramBudget > 0 {
		d.ramBudget = *ramBudget
		d.tierPath = tierPath(*snapDir)
		d.pagerMet = pager.NewMetrics(reg)
		d.openTierAtStart()
		logger.Info("tiered corpus enabled",
			"path", d.tierPath, "budget_bytes", d.ramBudget)
	}
	reg.GaugeFunc("ingestd_malformed_lines",
		"Input lines that failed to parse since start.",
		func() float64 { return float64(d.badLines.Load()) })

	httpLn, err := net.Listen("tcp", *listen)
	if err != nil {
		logger.Error("listen", "error", err)
		os.Exit(1)
	}
	srv := &http.Server{Handler: d.newMux()}
	go func() {
		if err := srv.Serve(httpLn); err != nil && err != http.ErrServerClosed {
			logger.Error("http", "error", err)
		}
	}()
	logger.Info("serving", "addr", httpLn.Addr().String(), "shards", pipe.NumShards())

	if routes != nil {
		go func() {
			t := time.NewTicker(*outEvery)
			defer t.Stop()
			for range t.C {
				d.latestOutages.Store(detectOutages(pipe, *outWindow))
			}
		}()
		logger.Info("outage detector live", "bin", outBin.String(), "rescan", outEvery.String())
	}

	switch {
	case *file != "":
		in := os.Stdin
		if *file != "-" {
			f, err := os.Open(*file)
			if err != nil {
				logger.Error("open", "error", err)
				os.Exit(1)
			}
			// Closing the file mid-replay errors the scanner: that is the
			// interrupt path a graceful shutdown uses.
			d.stopSource = func() { f.Close() }
			in = f
		}
		d.sourceDone = make(chan struct{})
		go func() {
			defer close(d.sourceDone)
			if err := ingestStream(pipe, in, &d.badLines); err != nil {
				logger.Error("file replay", "error", err)
				return
			}
			logger.Info("stream done; still serving",
				"malformed", d.badLines.Load())
		}()
	case *sim:
		// The sim replay is not interruptible (no stopSource): shutdown
		// quiesces and checkpoints around it without waiting.
		go func() {
			n := simReplay(pipe, logger, *simSeed, *simScale, *simDays)
			pipe.SnapshotNow()
			logger.Info("sim replay done; still serving", "events", n)
		}()
	case *udp != "":
		conn, err := net.ListenPacket("udp", *udp)
		if err != nil {
			logger.Error("udp listen", "error", err)
			os.Exit(1)
		}
		d.udp = newUDPSource(reg)
		r := newDatagramReader(conn)
		logger.Info("ingesting event datagrams",
			"addr", conn.LocalAddr().String(), "batched", r.batched())
		d.stopSource = func() { conn.Close() }
		d.sourceDone = make(chan struct{})
		go func() {
			defer close(d.sourceDone)
			ingestUDP(pipe, conn, r, &d.badLines, logger, d.udp)
		}()
	}
	health.SetReady()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	logger.Info("shutting down", "signal", s.String())
	d.shutdown(srv)
}

// snapshotPath is where the durable corpus lives inside -snapshot.dir.
func snapshotPath(dir string) string {
	return filepath.Join(dir, "corpus.snap")
}

// tierPath is where the tiered-corpus query file lives, next to the
// checkpoint it is derived from.
func tierPath(dir string) string {
	return filepath.Join(dir, "corpus.tier")
}

// restoreOrEmpty loads the corpus checkpoint chain for daemon startup.
// A daemon must come up even when its checkpoint is damaged — losing the
// corpus and re-accumulating beats refusing to collect — so missing
// files start empty silently and unreadable/corrupt files start empty
// with a logged warning. (Batch/study runs make the opposite choice:
// see hitlist6.Config.CheckpointPath.)
func restoreOrEmpty(path string, logf func(format string, args ...any)) *collector.Collector {
	c, err := ingest.RestoreChainFiles(path)
	if err != nil {
		logf("ingestd: WARNING: checkpoint %s unusable, starting with an empty corpus: %v", path, err)
		return nil
	}
	if c == nil {
		return nil
	}
	logf("ingestd: restored %d addresses (%d observations) from %s",
		c.NumAddrs(), c.TotalObservations(), path)
	return c
}

// snapshotReply is the /snapshot JSON shape.
type snapshotReply struct {
	Path   string `json:"path"`
	Bytes  int64  `json:"bytes"`
	Millis int64  `json:"millis"`
}

// statsReply is the /stats JSON shape.
type statsReply struct {
	Shards       int                    `json:"shards"`
	Metrics      ingest.MetricsSnapshot `json:"metrics"`
	UDP          *udpStatsReply         `json:"udp,omitempty"`
	Tier         *tierStatsReply        `json:"tier,omitempty"`
	UniqueAddrs  int                    `json:"unique_addrs"`
	UniqueIIDs   int                    `json:"unique_iids"`
	Observations uint64                 `json:"observations"`
	HLLEstimate  float64                `json:"hll_estimate"`
	Categories   map[string]uint64      `json:"categories"`
}

func buildStats(pipe *ingest.Pipeline, udp *udpSource) statsReply {
	reply := statsReply{
		Shards:       pipe.NumShards(),
		Metrics:      pipe.Metrics(),
		UDP:          udp.statsReply(),
		UniqueAddrs:  pipe.Store().NumAddrs(),
		UniqueIIDs:   pipe.Store().NumIIDs(),
		Observations: pipe.Store().TotalObservations(),
		Categories:   make(map[string]uint64),
	}
	pipe.StageView(func(stages []ingest.Stage) {
		for _, st := range stages {
			switch s := st.(type) {
			case *ingest.HLLStage:
				reply.HLLEstimate = s.H.Estimate()
			case *ingest.CategoryStage:
				for c, n := range s.Counts {
					if n > 0 {
						reply.Categories[addr.Category(c).String()] = n
					}
				}
			}
		}
	})
	return reply
}

// outagesReply is the /outages JSON shape.
type outagesReply struct {
	UpdatedUnix  int64              `json:"updated_unix"`
	Bin          string             `json:"bin"`
	Bins         int                `json:"bins"`
	CompleteBins int                `json:"complete_bins"`
	WindowBins   int                `json:"window_bins,omitempty"`
	ASes         int                `json:"ases"`
	Events       []outageEventReply `json:"events"`
}

// outageEventReply is one detected outage in /outages.
type outageEventReply struct {
	ASN          asdb.ASN  `json:"asn"`
	From         time.Time `json:"from"`
	To           time.Time `json:"to"`
	DarkBins     int       `json:"dark_bins"`
	MedianVolume float64   `json:"median_volume"`
	Summary      string    `json:"summary"`
}

// detectOutages scans the live outage series' rolling window. The stage
// view hands out a deep-copied series, so detection runs entirely off
// the merge lock.
func detectOutages(pipe *ingest.Pipeline, windowBins int) *outagesReply {
	var series *outage.Series
	pipe.StageView(func(stages []ingest.Stage) {
		for _, st := range stages {
			if s, ok := st.(*ingest.OutageSeriesStage); ok {
				series = s.Series()
			}
		}
	})
	reply := &outagesReply{
		UpdatedUnix: time.Now().Unix(),
		WindowBins:  windowBins,
		Events:      []outageEventReply{},
	}
	if series == nil {
		return reply
	}
	series = series.Tail(windowBins)
	reply.Bin = series.Bin.String()
	reply.Bins = series.Bins
	reply.CompleteBins = series.Complete
	reply.ASes = len(series.ByAS)
	for _, e := range outage.Detect(series, outage.DefaultConfig()) {
		reply.Events = append(reply.Events, outageEventReply{
			ASN:          e.ASN,
			From:         e.From,
			To:           e.To,
			DarkBins:     e.DarkBins,
			MedianVolume: e.MedianVolume,
			Summary:      e.String(),
		})
	}
	return reply
}

// ingestStream replays newline-framed event lines from in until EOF (or
// a read error — which is also how a graceful shutdown interrupts a
// file replay, by closing the underlying file).
func ingestStream(pipe *ingest.Pipeline, in io.Reader, badLines *atomic.Uint64) error {
	b := pipe.NewBatcher()
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1<<16), 1<<16)
	for sc.Scan() {
		ingestLine(b, sc.Bytes(), badLines)
	}
	b.Flush()
	pipe.SnapshotNow()
	return sc.Err()
}

// ingestLine parses one event line into the batcher, tolerating blank
// lines, surrounding whitespace (including the \r of CRLF framing) and
// # comments; only genuinely malformed lines count as bad.
func ingestLine(b *ingest.Batcher, line []byte, badLines *atomic.Uint64) bool {
	line = bytes.TrimSpace(line)
	if len(line) == 0 || line[0] == '#' {
		return false
	}
	ev, err := ingest.ParseEventBytes(line)
	if err != nil {
		badLines.Add(1)
		return false
	}
	b.Add(ev)
	return true
}

// ingestDatagram splits one UDP payload into event lines, walking
// newlines in place — bytes.Split would allocate a fragment slice per
// datagram, which at wire rate is a fragment slice per syscall. A
// newline-terminated datagram's empty trailing fragment must not count
// as a parse error — ingestLine skips blanks.
func ingestDatagram(b *ingest.Batcher, buf []byte, badLines *atomic.Uint64) int {
	added := 0
	for len(buf) > 0 {
		var line []byte
		if nl := bytes.IndexByte(buf, '\n'); nl < 0 {
			line, buf = buf, nil
		} else {
			line, buf = buf[:nl], buf[nl+1:]
		}
		if ingestLine(b, line, badLines) {
			added++
		}
	}
	return added
}

// simReplay builds a simulated world and streams its NTP queries
// through the paper's pool selection into the pipeline, as a
// self-contained demo and load generator.
func simReplay(pipe *ingest.Pipeline, log *slog.Logger, seed int64, scale float64, days int) uint64 {
	wcfg := simnet.DefaultConfig(seed, scale)
	wcfg.Days = days
	w, err := simnet.Build(wcfg)
	if err != nil {
		log.Error("sim build", "error", err)
		return 0
	}
	pool, err := ntppool.New(ntppool.StudyVantages())
	if err != nil {
		log.Error("sim pool", "error", err)
		return 0
	}
	stats := ntppool.RunIngest(w, pool, pipe)
	return stats.Queries
}
