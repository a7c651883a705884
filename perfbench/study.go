package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"strings"
	"time"

	"hitlist6"
	"hitlist6/internal/fold"
	"hitlist6/internal/telemetry"
	"hitlist6/internal/workload"
)

// The study workload is the researcher's path: the paper world built by
// NewStudy, one passive collection through the replay producer and the
// sharded pipeline, both active campaigns, and Report() repeated on the
// same study. Closed loop, one caller. Parse, checkpoint, pager and the
// socket do not run here.
var studySize = workload.Size{Scale: 1, Days: 218}

const (
	// studyReports is how many Report() calls follow the first one in
	// each iteration; they are the report_s samples.
	studyReports = 2
	// studyExtraSetups adds NewStudy calls whose only use is the set-up
	// median, so setup_s rests on more samples than iterations.
	studyExtraSetups = 4
)

// reportSections are the Report() units timed in report_section_seconds;
// a section not listed here is summed into report.section.other_s.
var reportSections = []string{
	"input:sidecar_ntp", "input:sidecar_hitlist", "input:sidecar_caida", "input:sidecar_day",
	"input:tracking", "input:backscan",
	"header", "table1", "as_types", "figure1", "figure2a", "figure2b", "backscan",
	"figure4a", "figure4b", "strategies", "figure5", "tracking", "geolocation",
}

// sectionMetric names a section's per-layer metric.
func sectionMetric(section string) string {
	return "report.section." + strings.ReplaceAll(section, ":", ".") + "_s"
}

type studyWorkload struct {
	e   env
	cfg hitlist6.Config
	// reportSums are the distinct Report() SHA-256s in order of
	// appearance; every report must match the first.
	reportSums []string
	addrs      int
	queries    uint64
}

func newStudyWorkload(e env) (benchWorkload, error) {
	cfg := hitlist6.DefaultConfig()
	cfg.Seed = e.seed
	cfg.Scale = studySize.Scale
	cfg.Days = studySize.Days
	cfg.IngestShards = nproc
	cfg.AnalysisWorkers = nproc
	return &studyWorkload{e: e, cfg: cfg}, nil
}

func (w *studyWorkload) size() map[string]any {
	return map[string]any{"scale": studySize.Scale, "days": studySize.Days, "queries": w.queries, "addrs": w.addrs}
}

func (w *studyWorkload) measure(tr *tracer, o *outcome) (*pass, error) {
	p := newPass()
	cfg := w.cfg
	if tr != nil {
		// The registry instruments the traced pass only; NewStudy installs
		// the process-wide fold hook, removed again when the pass ends.
		cfg.Telemetry = telemetry.NewRegistry()
		defer fold.SetTiming(nil)
	}

	var setup, studyS, reportS, collectS, activeS, peaks []float64
	for i := 0; i < studyExtraSetups; i++ {
		t0 := time.Now()
		_, err := hitlist6.NewStudy(cfg)
		setup = append(setup, time.Since(t0).Seconds())
		o.ops(1)
		if err != nil {
			return nil, err
		}
	}
	reports := 0
	dl := after(w.e.seconds)
	for it := 0; it == 0 || !dl.passed(); it++ {
		resetPeakRSS()
		tr.setRun(fmt.Sprintf("study-%d", it))
		root := tr.begin("study.iteration", -1)
		t0 := time.Now()
		var s *hitlist6.Study
		var err error
		tr.do("study.new", root, func() { s, err = hitlist6.NewStudy(cfg) })
		setup = append(setup, time.Since(t0).Seconds())
		o.ops(1)
		if err != nil {
			return nil, err
		}

		t1 := time.Now()
		tr.do("study.collect", root, func() { err = s.CollectPassive() })
		t2 := time.Now()
		if err == nil {
			tr.do("hitlist.active", root, func() { err = s.BuildActive() })
		}
		t3 := time.Now()
		o.ops(2)
		if err != nil {
			return nil, err
		}
		collectS = append(collectS, t2.Sub(t1).Seconds())
		activeS = append(activeS, t3.Sub(t2).Seconds())
		for r := 0; r <= studyReports; r++ {
			t4 := time.Now()
			var text string
			tr.do("report.render", root, func() { text, err = s.Report() })
			d := time.Since(t4).Seconds()
			o.ops(1)
			if err != nil {
				return nil, err
			}
			reports++
			if r == 0 {
				studyS = append(studyS, time.Since(t1).Seconds())
			} else {
				reportS = append(reportS, d)
			}
			w.checkReport(text, o)
		}
		tr.end(root)
		w.addrs, w.queries = s.Collector.NumAddrs(), s.RunStats.Queries
		rss, err := peakRSSMB("self")
		if err != nil {
			return nil, err
		}
		peaks = append(peaks, rss)
	}

	p.e2e.set("setup_s", median(setup), "s")
	p.e2e.set("study_s", median(studyS), "s")
	p.e2e.set("report_s", median(reportS), "s")
	p.e2e.set("peak_rss_mb", median(peaks), "MiB")
	p.detail["report_sha256"] = w.reportSums
	p.detail["samples"] = map[string]int{"setup_s": len(setup), "study_s": len(studyS), "report_s": len(reportS)}

	if reg := cfg.Telemetry; reg != nil {
		s, err := scrape(reg)
		if err != nil {
			return nil, err
		}
		studies := float64(len(studyS))
		calls := float64(reports)
		p.layer.set("study.collect_s", median(collectS), "s")
		p.layer.set("hitlist.active_s", median(activeS), "s")
		p.layer.set("ingest.batches", s.total("ingest_batches_total")/studies, "count")
		p.layer.set("ingest.dropped", s.total("ingest_events_dropped_total")/studies, "count")
		p.layer.set("ingest.shard_busy_s", s.total("ingest_batch_seconds_sum")/studies, "s")
		p.layer.set("collector.merge_s", s.total("ingest_merge_seconds_sum")/studies, "s")
		p.layer.set("fold.dispatch_s", s.total("fold_dispatch_seconds_sum")/calls, "s")
		p.layer.set("fold.dispatches", s.total("fold_dispatch_seconds_count")/calls, "count")
		known := 0.0
		for _, sec := range reportSections {
			v := s.label("report_section_seconds_sum", `section="`+sec+`"`)
			known += v
			p.layer.set(sectionMetric(sec), v/calls, "s")
		}
		p.layer.set(sectionMetric("other"), (s.total("report_section_seconds_sum")-known)/calls, "s")
	}
	return p, nil
}

// checkReport holds every Report() output of the run, of every study
// and pass, to the first one byte for byte, and records each distinct
// SHA-256 in order of appearance.
func (w *studyWorkload) checkReport(text string, o *outcome) {
	sum := sha256.Sum256([]byte(text))
	got := hex.EncodeToString(sum[:])
	if !slices.Contains(w.reportSums, got) {
		w.reportSums = append(w.reportSums, got)
	}
	o.check(got == w.reportSums[0], "Report() sha256 %s, first report %s", got, w.reportSums[0])
}
