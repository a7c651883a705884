package hitlist6

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"hitlist6/internal/collector"
	"hitlist6/internal/ingest"
	"hitlist6/internal/outage"
	"hitlist6/internal/snapfmt"
)

// A study checkpoint is everything CollectPassive needs to resume a
// partially replayed window and still produce byte-identical results:
// the replay position, the corpus so far, the day-slice corpus so far,
// and the outage series so far — the corpus alone is not enough,
// because the single ingest pass feeds all three. On disk it is three
// self-delimiting streams back to back:
//
//	snapfmt "h6ckpt01": meta section (config fingerprint + replay
//	                    position), series section (outage.Series codec)
//	collector snapshot: the full corpus
//	collector snapshot: the day-slice corpus
//
// The config fingerprint pins the checkpoint to one deterministic
// replay: resuming under a different seed, scale, window or bin would
// silently weld two unrelated studies together, so it is an error.
const (
	ckptMagic   = "h6ckpt01"
	ckptVersion = 1

	ckptSecMeta   = 1
	ckptSecSeries = 2

	ckptMetaWire = 48
)

// ckptMeta is the checkpoint's replay position and config fingerprint.
type ckptMeta struct {
	events   uint64 // replay events already folded into the corpus
	seed     int64
	scale    float64
	days     int
	sliceDay int
	binSec   int64
}

func metaFor(cfg Config, bin time.Duration, events uint64) ckptMeta {
	return ckptMeta{
		events:   events,
		seed:     cfg.Seed,
		scale:    cfg.Scale,
		days:     cfg.Days,
		sliceDay: cfg.SliceDay,
		binSec:   int64(bin / time.Second),
	}
}

// matches rejects a checkpoint recorded under a different study
// configuration.
func (m ckptMeta) matches(want ckptMeta) error {
	if m.seed != want.seed || m.scale != want.scale || m.days != want.days ||
		m.sliceDay != want.sliceDay || m.binSec != want.binSec {
		return fmt.Errorf("hitlist6: checkpoint is for study (seed=%d scale=%g days=%d slice=%d bin=%ds), this study is (seed=%d scale=%g days=%d slice=%d bin=%ds)",
			m.seed, m.scale, m.days, m.sliceDay, m.binSec,
			want.seed, want.scale, want.days, want.sliceDay, want.binSec)
	}
	return nil
}

// studyCheckpoint is a fully decoded checkpoint.
type studyCheckpoint struct {
	meta   ckptMeta
	series *outage.Series
	corpus *collector.Collector
	day    *collector.Collector
}

// writeStudyCheckpoint serializes one checkpoint to w. The caller owns
// buffering and atomicity (see ingest.AtomicWriteFile).
func writeStudyCheckpoint(w io.Writer, meta ckptMeta, series *outage.Series, corpus, day *collector.Collector) error {
	sw, err := snapfmt.NewWriter(w, ckptMagic, ckptVersion)
	if err != nil {
		return err
	}
	if err := sw.Begin(ckptSecMeta, ckptMetaWire); err != nil {
		return err
	}
	var mb [ckptMetaWire]byte
	binary.BigEndian.PutUint64(mb[0:], meta.events)
	binary.BigEndian.PutUint64(mb[8:], uint64(meta.seed))
	binary.BigEndian.PutUint64(mb[16:], math.Float64bits(meta.scale))
	binary.BigEndian.PutUint64(mb[24:], uint64(meta.days))
	binary.BigEndian.PutUint64(mb[32:], uint64(meta.sliceDay))
	binary.BigEndian.PutUint64(mb[40:], uint64(meta.binSec))
	if _, err := sw.Write(mb[:]); err != nil {
		return err
	}
	if err := sw.End(); err != nil {
		return err
	}

	sb, err := series.MarshalBinary()
	if err != nil {
		return err
	}
	if err := sw.Begin(ckptSecSeries, uint64(len(sb))); err != nil {
		return err
	}
	if _, err := sw.Write(sb); err != nil {
		return err
	}
	if err := sw.End(); err != nil {
		return err
	}
	if err := sw.Close(); err != nil {
		return err
	}

	if err := corpus.Snapshot(w); err != nil {
		return err
	}
	return day.Snapshot(w)
}

// readStudyCheckpoint decodes one checkpoint from r. Damage of any
// kind errors out; nothing partial is returned.
func readStudyCheckpoint(r io.Reader) (*studyCheckpoint, error) {
	sr, err := snapfmt.NewReader(r, ckptMagic)
	if err != nil {
		return nil, err
	}
	if v := sr.Version(); v != ckptVersion {
		return nil, fmt.Errorf("hitlist6: checkpoint version %d unsupported (have %d)", v, ckptVersion)
	}
	id, size, err := sr.Next()
	if err != nil {
		return nil, fmt.Errorf("hitlist6: checkpoint meta: %w", err)
	}
	if id != ckptSecMeta || size != ckptMetaWire {
		return nil, fmt.Errorf("hitlist6: checkpoint meta section malformed (id %d, %d bytes)", id, size)
	}
	var mb [ckptMetaWire]byte
	if _, err := io.ReadFull(sr, mb[:]); err != nil {
		return nil, fmt.Errorf("hitlist6: checkpoint meta: %w", err)
	}
	if err := sr.End(); err != nil {
		return nil, fmt.Errorf("hitlist6: checkpoint meta: %w", err)
	}
	ck := &studyCheckpoint{meta: ckptMeta{
		events:   binary.BigEndian.Uint64(mb[0:]),
		seed:     int64(binary.BigEndian.Uint64(mb[8:])),
		scale:    math.Float64frombits(binary.BigEndian.Uint64(mb[16:])),
		days:     int(int64(binary.BigEndian.Uint64(mb[24:]))),
		sliceDay: int(int64(binary.BigEndian.Uint64(mb[32:]))),
		binSec:   int64(binary.BigEndian.Uint64(mb[40:])),
	}}

	id, size, err = sr.Next()
	if err != nil {
		return nil, fmt.Errorf("hitlist6: checkpoint series: %w", err)
	}
	const maxSeriesWire = 1 << 30
	if id != ckptSecSeries || size > maxSeriesWire {
		return nil, fmt.Errorf("hitlist6: checkpoint series section malformed (id %d, %d bytes)", id, size)
	}
	sb := make([]byte, size)
	if _, err := io.ReadFull(sr, sb); err != nil {
		return nil, fmt.Errorf("hitlist6: checkpoint series: %w", err)
	}
	if err := sr.End(); err != nil {
		return nil, fmt.Errorf("hitlist6: checkpoint series: %w", err)
	}
	if ck.series, err = outage.UnmarshalSeries(sb); err != nil {
		return nil, fmt.Errorf("hitlist6: checkpoint: %w", err)
	}
	if _, _, err := sr.Next(); err != io.EOF {
		if err == nil {
			return nil, fmt.Errorf("hitlist6: checkpoint carries extra sections")
		}
		return nil, fmt.Errorf("hitlist6: checkpoint: %w", err)
	}

	if ck.corpus, err = collector.OpenSnapshot(r); err != nil {
		return nil, fmt.Errorf("hitlist6: checkpoint corpus: %w", err)
	}
	if ck.day, err = collector.OpenSnapshot(r); err != nil {
		return nil, fmt.Errorf("hitlist6: checkpoint day slice: %w", err)
	}
	return ck, nil
}

// readCheckpointFile loads a checkpoint file. A missing file returns
// (nil, nil): the fresh-start case.
func readCheckpointFile(path string) (*studyCheckpoint, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return readStudyCheckpoint(bufio.NewReaderSize(f, 1<<20))
}

// writeCheckpoint quiesces the pipeline and persists the study's
// resume state at the given replay position. Called from the paused
// replay producer (see ntppool.IngestProgress).
func (s *Study) writeCheckpoint(pipe *ingest.Pipeline, bin time.Duration, events uint64) error {
	pipe.Quiesce()
	day, _ := pipe.Stage("dayslice").(*ingest.DaySliceStage)
	out, _ := pipe.Stage("outage").(*ingest.OutageSeriesStage)
	if day == nil || out == nil {
		return fmt.Errorf("hitlist6: checkpoint: pipeline stages missing")
	}
	series := out.Series()
	_, err := ingest.AtomicWriteFile(s.Config.CheckpointPath, func(w io.Writer) (err error) {
		// The live corpus is written under the store's read lock.
		pipe.Store().View(func(corpus *collector.Collector) {
			err = writeStudyCheckpoint(w, metaFor(s.Config, bin, events), series, corpus, day.Col)
		})
		return err
	})
	return err
}
