package ingest

import (
	"os"
	"path/filepath"
	"testing"

	"hitlist6/internal/addr"
)

func feedSlice(t *testing.T, p *Pipeline, events []Event) {
	t.Helper()
	b := p.NewBatcher()
	for _, ev := range events {
		b.Add(ev)
	}
	b.Flush()
}

// TestCheckpointChain drives the delta-chain file protocol end to end:
// a full anchor, deltas that stay an order of magnitude smaller, chain
// restore equivalence, compaction back to a full base, and the failure
// modes restore must reject (gap, corruption, orphaned deltas).
func TestCheckpointChain(t *testing.T) {
	events := testEvents(t, 0.03, 12)
	path := filepath.Join(t.TempDir(), "corpus.snap")

	p, err := New(DefaultConfig(4))
	if err != nil {
		t.Fatal(err)
	}

	// No base yet: the first chain checkpoint is a full anchor.
	feedSlice(t, p, events[:len(events)/2])
	baseSize, err := p.CheckpointChain(path)
	if err != nil {
		t.Fatal(err)
	}
	if m := p.Metrics(); m.Checkpoints != 1 || m.DeltaCheckpoints != 0 || m.ChainSeq != 0 {
		t.Fatalf("after anchor: %+v", m)
	}

	// Each feed extends the chain with a delta file. (The size win is
	// asserted in TestCheckpointChainDeltaSize on a corpus large enough
	// for block granularity to matter; this corpus is a handful of dirty
	// blocks total.)
	step := len(events) / 40
	half := len(events) / 2
	for i := 0; i < 2; i++ {
		feedSlice(t, p, events[half+i*step:half+(i+1)*step])
		deltaSize, err := p.CheckpointChain(path)
		if err != nil {
			t.Fatal(err)
		}
		if deltaSize <= 0 || deltaSize > baseSize*2 {
			t.Fatalf("delta %d is %d bytes against a %d-byte base", i+1, deltaSize, baseSize)
		}
		if _, err := os.Stat(deltaPath(path, uint64(i+1))); err != nil {
			t.Fatalf("delta file %d: %v", i+1, err)
		}
	}
	if m := p.Metrics(); m.Checkpoints != 3 || m.DeltaCheckpoints != 2 || m.ChainSeq != 2 {
		t.Fatalf("after deltas: %+v", m)
	}

	// The chain restores to exactly the checkpointed corpus.
	restored, err := RestoreChainFiles(path)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Checksum() != p.Store().Checksum() {
		t.Fatal("chain restore diverges from the live corpus")
	}

	// Delta compactEvery fills the chain: the next checkpoint folds it
	// into a fresh full base and removes the delta files.
	for i := 2; i < compactEvery; i++ {
		feedSlice(t, p, events[half+i*step:half+(i+1)*step])
		if _, err := p.CheckpointChain(path); err != nil {
			t.Fatal(err)
		}
	}
	if m := p.Metrics(); m.ChainSeq != compactEvery || len(chainDeltaFiles(path)) != compactEvery {
		t.Fatalf("chain not full before compaction: %+v", m)
	}
	feedSlice(t, p, events[half+compactEvery*step:half+(compactEvery+1)*step])
	if _, err := p.CheckpointChain(path); err != nil {
		t.Fatal(err)
	}
	if m := p.Metrics(); m.ChainSeq != 0 || m.DeltaCheckpoints != compactEvery {
		t.Fatalf("compaction did not reset the chain: %+v", m)
	}
	if ds := chainDeltaFiles(path); len(ds) != 0 {
		t.Fatalf("compaction left delta files: %v", ds)
	}
	restored, err = RestoreChainFiles(path)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Checksum() != p.Store().Checksum() {
		t.Fatal("post-compaction restore diverges from the live corpus")
	}

	// Rebuild a two-delta chain to break in various ways.
	for i := compactEvery + 1; i < compactEvery+3; i++ {
		feedSlice(t, p, events[half+i*step:half+(i+1)*step])
		if _, err := p.CheckpointChain(path); err != nil {
			t.Fatal(err)
		}
	}
	p.Close()

	// A gap in the sequence is an error, not a silent partial restore.
	d1 := deltaPath(path, 1)
	moved := d1 + ".aside"
	if err := os.Rename(d1, moved); err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreChainFiles(path); err == nil {
		t.Fatal("restore accepted a chain with a missing delta")
	}
	if err := os.Rename(moved, d1); err != nil {
		t.Fatal(err)
	}

	// A corrupted delta is rejected.
	raw, err := os.ReadFile(d1)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), raw...)
	bad[len(bad)/2] ^= 0x40
	if err := os.WriteFile(d1, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreChainFiles(path); err == nil {
		t.Fatal("restore accepted a corrupted delta")
	}
	if err := os.WriteFile(d1, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreChainFiles(path); err != nil {
		t.Fatalf("pristine chain no longer restores: %v", err)
	}

	// Deltas without their base are unrecoverable state, not empty-start.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreChainFiles(path); err == nil {
		t.Fatal("restore accepted orphaned deltas")
	}
	if err := removeChainDeltas(path); err != nil {
		t.Fatal(err)
	}
	if c, err := RestoreChainFiles(path); err != nil || c != nil {
		t.Fatalf("clean slate: got (%v, %v), want (nil, nil)", c, err)
	}
}

// TestCheckpointChainSupersededDeltas is the crash window of a full
// checkpoint: the new base is renamed into place, and the process dies
// (or a remove fails) before the previous chain's deltas are deleted.
// Restore must land on the new base — the newest acknowledged state —
// not reject the directory and leave a daemon to start empty and
// overwrite its corpus. A damaged leftover is still an error.
func TestCheckpointChainSupersededDeltas(t *testing.T) {
	events := testEvents(t, 0.03, 12)
	dir := t.TempDir()
	path := filepath.Join(dir, "corpus.snap")
	quarter := len(events) / 4

	// Chain 1: base plus two deltas.
	p, err := New(DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		feedSlice(t, p, events[i*quarter/3:(i+1)*quarter/3])
		if _, err := p.CheckpointChain(path); err != nil {
			t.Fatal(err)
		}
	}
	p.Close()
	saved := map[string][]byte{}
	for _, f := range chainDeltaFiles(path) {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		saved[f] = raw
	}
	if len(saved) != 2 {
		t.Fatalf("chain 1 has %d deltas, want 2", len(saved))
	}

	// Restart on chain 1 and grow: the restored seed carries no chain
	// position, so the first checkpoint is a full base superseding it.
	seed, err := RestoreChainFiles(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(2)
	cfg.Seed = seed
	p, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	feedSlice(t, p, events[quarter:2*quarter])
	if _, err := p.CheckpointChain(path); err != nil {
		t.Fatal(err)
	}
	if m := p.Metrics(); m.DeltaCheckpoints != 0 || len(chainDeltaFiles(path)) != 0 {
		t.Fatalf("restart's first checkpoint was not a full base: %+v", m)
	}
	live := p.Store().Checksum()

	// The crash: chain 1's deltas are back beside the new base — all of
	// them, or the prefix a crash mid-removal leaves.
	put := func(seqs ...uint64) {
		t.Helper()
		if err := removeChainDeltas(path); err != nil {
			t.Fatal(err)
		}
		for _, seq := range seqs {
			if err := os.WriteFile(deltaPath(path, seq), saved[deltaPath(path, seq)], 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, seqs := range [][]uint64{{1, 2}, {1}} {
		put(seqs...)
		got, err := RestoreChainFiles(path)
		if err != nil {
			t.Fatalf("leftover deltas %v: restore failed: %v", seqs, err)
		}
		if got.Checksum() != live {
			t.Fatalf("leftover deltas %v: restore is not the new base", seqs)
		}
	}

	// A damaged or out-of-sequence leftover is not silently skipped.
	put(2)
	if _, err := RestoreChainFiles(path); err == nil {
		t.Fatal("restore accepted a chain starting at delta 2")
	}
	put(1, 2)
	bad := append([]byte(nil), saved[deltaPath(path, 1)]...)
	bad[len(bad)/2] ^= 0x40
	if err := os.WriteFile(deltaPath(path, 1), bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreChainFiles(path); err == nil {
		t.Fatal("restore accepted a corrupted leftover delta")
	}

	// A full checkpoint that cannot remove the old chain fails, and the
	// next checkpoint is full again so the removal is retried: a delta 1
	// written in front of an old delta 2 would not restore. A non-empty
	// directory in delta 2's place makes its removal fail.
	put(1)
	blocker := deltaPath(path, 2)
	if err := os.MkdirAll(filepath.Join(blocker, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	p2, err := New(DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	feedSlice(t, p2, events[:quarter])
	if _, err := p2.CheckpointChain(path); err == nil {
		t.Fatal("full checkpoint ignored a failed delta removal")
	}
	if m := p2.Metrics(); m.CheckpointErrors != 1 || m.Checkpoints != 0 {
		t.Fatalf("failed removal not counted: %+v", m)
	}
	if _, err := os.Stat(deltaPath(path, 1)); err != nil {
		t.Fatalf("removal past a failure: delta 1 gone (%v), leaving a gap", err)
	}
	if err := os.RemoveAll(blocker); err != nil {
		t.Fatal(err)
	}
	feedSlice(t, p2, events[quarter:quarter+10])
	if _, err := p2.CheckpointChain(path); err != nil {
		t.Fatal(err)
	}
	if m := p2.Metrics(); m.DeltaCheckpoints != 0 || len(chainDeltaFiles(path)) != 0 {
		t.Fatalf("retry was not a full checkpoint removing the old chain: %+v", m)
	}
	got, err := RestoreChainFiles(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Checksum() != p2.Store().Checksum() {
		t.Fatal("restore after the retried removal diverges from the live corpus")
	}
}

// TestCheckpointChainDeltaSize is the size-ratio acceptance bar at the
// pipeline level: on a corpus spanning many dirty-tracking blocks, a
// checkpoint after touching a small contiguous slice of it must be at
// least 10x smaller than the full base. One shard keeps the store's
// record order equal to feed order, so the touched records stay in one
// block.
func TestCheckpointChainDeltaSize(t *testing.T) {
	const n = 60000
	mk := func(i int) Event {
		h := uint64(i) * 0x9e3779b97f4a7c15
		h ^= h >> 29
		return Event{
			Addr:   addr.FromParts(0x20010db8<<32|uint64(i>>8), h|1),
			Time:   int64(1_600_000_000 + i),
			Server: int32(i % 4),
		}
	}
	path := filepath.Join(t.TempDir(), "corpus.snap")
	p, err := New(DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	events := make([]Event, n)
	for i := range events {
		events[i] = mk(i)
	}
	feedSlice(t, p, events)
	baseSize, err := p.CheckpointChain(path)
	if err != nil {
		t.Fatal(err)
	}

	// Re-observe the first 300 addresses: one dirty block out of ~15.
	touch := make([]Event, 300)
	for i := range touch {
		touch[i] = mk(i)
		touch[i].Time += 3600
	}
	feedSlice(t, p, touch)
	deltaSize, err := p.CheckpointChain(path)
	if err != nil {
		t.Fatal(err)
	}
	if deltaSize*10 > baseSize {
		t.Fatalf("delta is %d bytes against a %d-byte base, want >= 10x smaller", deltaSize, baseSize)
	}
	restored, err := RestoreChainFiles(path)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Checksum() != p.Store().Checksum() {
		t.Fatal("chain restore diverges from the live corpus")
	}
}
