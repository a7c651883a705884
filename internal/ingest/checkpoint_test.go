package ingest

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"hitlist6/internal/collector"
)

// TestCheckpointRestoreEquivalence is the durable-path extension of the
// 1/4/16-shard equivalence suite (run with -race): ingest half a stream
// from concurrent producers, checkpoint mid-ingest, restore the
// checkpoint into a fresh pipeline, finish the stream there — and the
// final corpus must be byte-identical (canonical Checksum) to an
// uninterrupted serial run of the whole stream.
func TestCheckpointRestoreEquivalence(t *testing.T) {
	events := testEvents(t, 0.03, 12)
	serial := collector.New()
	for _, ev := range events {
		serial.ObserveUnix(ev.Addr, ev.Time, int(ev.Server))
	}
	want := serial.Checksum()

	// The shard queues are channels; the subtest names the queue kind the
	// restore path is proven on.
	t.Run("queue=chan", func(t *testing.T) {
		const producers = 3
		for _, shards := range []int{1, 4, 16} {
			mkcfg := func() Config {
				cfg := DefaultConfig(shards)
				cfg.BatchSize = 32
				return cfg
			}
			first, err := New(mkcfg())
			if err != nil {
				t.Fatal(err)
			}
			feedConcurrently(first, events[:len(events)/2], producers)

			path := filepath.Join(t.TempDir(), "corpus.snap")
			if _, err := first.CheckpointChain(path); err != nil {
				t.Fatalf("shards=%d: checkpoint: %v", shards, err)
			}
			first.Close() // the interrupted process

			restored, err := RestoreChainFiles(path)
			if err != nil {
				t.Fatalf("shards=%d: restore: %v", shards, err)
			}
			cfg2 := mkcfg()
			cfg2.Seed = restored
			second, err := New(cfg2)
			if err != nil {
				t.Fatal(err)
			}
			feedConcurrently(second, events[len(events)/2:], producers)
			merged := second.Close()

			if got := merged.Checksum(); got != want {
				t.Errorf("shards=%d: checkpoint/restore corpus differs from serial run", shards)
			}
			if merged.TotalObservations() != uint64(len(events)) {
				t.Errorf("shards=%d: %d observations, want %d", shards,
					merged.TotalObservations(), len(events))
			}
		}
	})
}

// TestCheckpointCoversFlushed: Quiesce-backed checkpoints must contain
// every event flushed before the call, not merely handed to queues.
func TestCheckpointCoversFlushed(t *testing.T) {
	events := testEvents(t, 0.02, 6)
	p, err := New(DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	p.Ingest(events) // Ingest flushes

	path := filepath.Join(t.TempDir(), "corpus.snap")
	if _, err := p.CheckpointChain(path); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreChainFiles(path)
	if err != nil {
		t.Fatal(err)
	}
	if restored.TotalObservations() != uint64(len(events)) {
		t.Fatalf("checkpoint holds %d observations, want %d (flushed before Checkpoint)",
			restored.TotalObservations(), len(events))
	}
	p.Close()
}

// TestCheckpointFileAtomicAndRestore covers the checkpoint files: a
// base, a delta whose reported size is its file's, restore, no temp
// litter, a corrupt base, and the missing-file case.
func TestCheckpointFileAtomicAndRestore(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "corpus.snap")

	if c, err := RestoreChainFiles(path); err != nil || c != nil {
		t.Fatalf("missing checkpoint: got (%v, %v), want (nil, nil)", c, err)
	}

	events := testEvents(t, 0.02, 6)
	p, err := New(DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	p.Ingest(events[:len(events)/2])
	if _, err := p.CheckpointChain(path); err != nil {
		t.Fatal(err)
	}
	p.Ingest(events[len(events)/2:])
	size, err := p.CheckpointChain(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(deltaPath(path, 1)); err != nil || fi.Size() != size {
		t.Fatalf("checkpoint file size %v vs reported %d (err %v)", fi, size, err)
	}
	m := p.Metrics()
	if m.Checkpoints != 2 || m.CheckpointErrors != 0 || m.LastCheckpointBytes != uint64(size) {
		t.Fatalf("checkpoint metrics off: %+v", m)
	}
	merged := p.Close()

	restored, err := RestoreChainFiles(path)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Checksum() != merged.Checksum() {
		t.Fatalf("restored checkpoint differs from the live corpus it captured")
	}

	// No temp litter.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].Name() != "corpus.snap" || entries[1].Name() != "corpus.snap.delta.000001" {
		t.Fatalf("checkpoint dir litter: %v", entries)
	}

	// Corrupt base: restore must error, not return a husk.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if c, err := RestoreChainFiles(path); err == nil {
		t.Fatalf("corrupt checkpoint restored: %v", c)
	}
}

// TestCheckpointErrorsCounted: CheckpointChain counts its own failures,
// so a failed POST /snapshot or shutdown checkpoint shows in Metrics
// like a failed tick does.
func TestCheckpointErrorsCounted(t *testing.T) {
	p, err := New(DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.Ingest(testEvents(t, 0.02, 2))
	path := filepath.Join(t.TempDir(), "no-such-dir", "corpus.snap")
	for i := 1; i <= 2; i++ {
		if _, err := p.CheckpointChain(path); err == nil {
			t.Fatal("checkpoint into a missing directory succeeded")
		}
		if m := p.Metrics(); m.CheckpointErrors != uint64(i) || m.Checkpoints != 0 {
			t.Fatalf("after %d failures: %+v", i, m)
		}
	}
}

// TestCheckpointTicker: a pipeline configured with CheckpointInterval
// writes checkpoints on its own.
func TestCheckpointTicker(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "corpus.snap")
	cfg := DefaultConfig(2)
	cfg.CheckpointPath = path
	cfg.CheckpointInterval = 10 * time.Millisecond
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.Ingest(testEvents(t, 0.02, 4))
	deadline := time.Now().Add(5 * time.Second)
	for {
		if m := p.Metrics(); m.Checkpoints > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no periodic checkpoint within 5s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	merged := p.Close()
	restored, err := RestoreChainFiles(path)
	if err != nil {
		t.Fatal(err)
	}
	if restored == nil {
		t.Fatal("ticker reported a checkpoint but no file restores")
	}
	// The ticker may have fired before the final events flushed; the
	// checkpoint must be a prefix-consistent corpus, not necessarily the
	// final one.
	if restored.TotalObservations() > merged.TotalObservations() {
		t.Fatalf("checkpoint holds more observations (%d) than the corpus (%d)",
			restored.TotalObservations(), merged.TotalObservations())
	}
}

// TestSeedStage errors on unknown stages and seeds known ones.
func TestSeedStage(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.Stages = []StageFactory{Categories()}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	seed := &CategoryStage{}
	seed.Counts[0] = 41
	if err := p.SeedStage("categories", seed); err != nil {
		t.Fatal(err)
	}
	if err := p.SeedStage("nonesuch", &CategoryStage{}); err == nil {
		t.Fatal("seeding an unknown stage succeeded")
	}
	st := p.Stage("categories").(*CategoryStage)
	if st.Counts[0] != 41 {
		t.Fatalf("seeded count %d, want 41", st.Counts[0])
	}
}
