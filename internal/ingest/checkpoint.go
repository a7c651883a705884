package ingest

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"time"

	"hitlist6/internal/collector"
)

// Checkpointing is the pipeline's durability seam, and it has one
// protocol: CheckpointChain writes the merged corpus after a full
// Quiesce, so the artifact provably contains every event flushed before
// the call — a full snapshot anchoring a chain, then deltas of the
// record blocks dirtied since — each file through AtomicWriteFile, so a
// torn write can never shadow the previous good checkpoint.
// RestoreChainFiles is the other half, feeding Config.Seed on the next
// start. A chain with no deltas is a plain full snapshot.

// compactEvery bounds the delta chain: once this many deltas sit on the
// base, the next checkpoint is a full one, folding the chain into a
// fresh base and deleting the delta files.
const compactEvery = 16

// AtomicWriteFile writes a file via the crash-safe protocol every
// durable artifact in this codebase shares: a temp file in the target's
// directory (so the rename is same-filesystem and atomic), buffered
// writes, flush, fsync, close, then rename. On any error the previous
// file at path — the last good checkpoint — is untouched. Returns the
// bytes written. Study checkpoints reuse this; keep crash-safety fixes
// here, in the one copy.
func AtomicWriteFile(path string, write func(w io.Writer) error) (int64, error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return 0, err
	}
	defer os.Remove(tmp.Name()) // no-op after the rename succeeds

	bw := bufio.NewWriterSize(tmp, 1<<20)
	err = write(bw)
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = tmp.Sync()
	}
	size := int64(0)
	if fi, statErr := tmp.Stat(); statErr == nil {
		size = fi.Size()
	}
	if closeErr := tmp.Close(); err == nil {
		err = closeErr
	}
	if err != nil {
		return 0, err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return 0, err
	}
	return size, nil
}

// deltaPath names the chain file carrying delta sequence seq.
func deltaPath(base string, seq uint64) string {
	return fmt.Sprintf("%s.delta.%06d", base, seq)
}

// CheckpointChain writes one checkpoint in the delta-chain protocol: a
// full snapshot to path when the chain needs (re)anchoring — no base
// yet, a previous write left the watermark ahead of the disk, or
// compactEvery deltas have accumulated — and otherwise only the record
// blocks dirtied since the last checkpoint, to path.delta.NNNNNN. Every
// file goes through AtomicWriteFile, so a torn write never shadows an
// earlier good one; a full checkpoint then deletes the previous chain's
// delta files, which its base supersedes. Every failure counts in
// Metrics.CheckpointErrors, whoever asked for the checkpoint.
//
//lint:durable-path the chain protocol is what a crashed daemon restarts from
func (p *Pipeline) CheckpointChain(path string) (size int64, err error) {
	p.ckptMu.Lock()
	defer p.ckptMu.Unlock()
	defer func() {
		if err != nil {
			p.metrics.checkpointErrors.Add(1)
		}
	}()
	start := time.Now()

	seq, based := p.store.CheckpointSeq()
	full := !based || p.chainBroken || seq >= compactEvery

	// marked tracks whether the corpus watermark advanced inside the
	// write: if it did and the file still failed (flush, fsync, rename),
	// the in-memory chain position is ahead of the disk and only a fresh
	// full checkpoint can re-anchor it.
	marked := false
	target := path
	write := func(w io.Writer) error {
		p.Quiesce()
		var err error
		if full {
			err = p.store.CheckpointFull(w)
		} else {
			err = p.store.CheckpointDelta(w)
		}
		if err == nil {
			marked = true
		}
		return err
	}
	if !full {
		target = deltaPath(path, seq+1)
	}
	size, err = AtomicWriteFile(target, write)
	if err != nil {
		if marked {
			p.chainBroken = true
		}
		return 0, fmt.Errorf("ingest: checkpoint %s: %w", target, err)
	}
	if full {
		if err := removeChainDeltas(path); err != nil {
			// The new base is durable, but until the old deltas are gone
			// the next checkpoint must be full too: a fresh delta 1 in
			// front of the old chain's delta 2 would not restore.
			p.chainBroken = true
			return 0, fmt.Errorf("ingest: checkpoint %s: superseded chain: %w", path, err)
		}
		p.chainBroken = false
	} else {
		p.metrics.deltaCheckpoints.Add(1)
	}
	p.metrics.checkpoints.Add(1)
	p.metrics.lastCheckpointUnix.Set(time.Now().Unix())
	p.metrics.lastCheckpointBytes.Set(size)
	p.tel.checkpointTime.ObserveDuration(time.Since(start))
	p.tel.checkpointVolume.Observe(float64(size))
	return size, nil
}

// chainDeltaFiles maps delta sequence numbers to their files. Names
// that don't parse as a sequence (AtomicWriteFile temp litter from a
// crash) are not part of the chain and are ignored.
func chainDeltaFiles(path string) map[uint64]string {
	matches, _ := filepath.Glob(path + ".delta.*")
	files := make(map[uint64]string, len(matches))
	for _, m := range matches {
		suffix := m[len(path)+len(".delta."):]
		seq, err := strconv.ParseUint(suffix, 10, 64)
		if err != nil || seq == 0 {
			continue
		}
		files[seq] = m
	}
	return files
}

// removeChainDeltas deletes a superseded chain's delta files, highest
// sequence first, and stops at the first failure. A crash or a failed
// remove therefore leaves a prefix 1..j of the old chain, never a gap,
// and RestoreChainFiles recognises such a prefix as superseded by the
// base next to it.
func removeChainDeltas(path string) error {
	files := chainDeltaFiles(path)
	seqs := slices.Sorted(maps.Keys(files))
	for i := len(seqs) - 1; i >= 0; i-- {
		if err := os.Remove(files[seqs[i]]); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return nil
}

// RestoreChainFiles loads a base checkpoint plus its delta chain: the
// restore half of CheckpointChain. A missing base with no deltas is the
// empty start (nil, nil). A delta 1 that was cut against a different
// base (collector.ErrDeltaBase) belongs to a chain the base superseded:
// a compaction renamed the new base into place and died, or failed,
// before deleting the old deltas. The base is then the newest
// checkpoint, and restore returns it alone; the next checkpoint is full
// (a restored seed carries no chain position) and removes the leftovers.
// Deltas without a base, a gap in the sequence, or a delta that fails
// any other check are errors — the chain is not trustworthy and the
// caller decides whether to start empty. So is an unreadable or
// corrupt base.
func RestoreChainFiles(path string) (*collector.Collector, error) {
	deltas := chainDeltaFiles(path)
	c, err := restoreFile(path)
	if err != nil {
		return nil, err
	}
	if c == nil {
		if len(deltas) > 0 {
			return nil, fmt.Errorf("ingest: restore %s: %d delta files but no base checkpoint", path, len(deltas))
		}
		return nil, nil
	}
	// n files form a chain only if they are exactly 1..n.
	n := uint64(len(deltas))
	for seq := uint64(1); seq <= n; seq++ {
		if _, ok := deltas[seq]; !ok {
			return nil, fmt.Errorf("ingest: restore %s: delta %06d missing, %d delta files are not a chain", path, seq, n)
		}
	}
	for seq := uint64(1); seq <= n; seq++ {
		dp := deltas[seq]
		f, err := os.Open(dp)
		if err != nil {
			return nil, fmt.Errorf("ingest: restore %s: %w", dp, err)
		}
		err = c.ApplyDelta(bufio.NewReaderSize(f, 1<<20))
		f.Close()
		if seq == 1 && errors.Is(err, collector.ErrDeltaBase) {
			// ApplyDelta rejects a foreign base before touching c.
			return c, nil
		}
		if err != nil {
			return nil, fmt.Errorf("ingest: restore %s: %w", dp, err)
		}
	}
	return c, nil
}

// restoreFile opens the chain's base, a plain full snapshot. A missing
// file returns (nil, nil), the empty-start case.
func restoreFile(path string) (*collector.Collector, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("ingest: restore %s: %w", path, err)
	}
	defer f.Close()
	c, err := collector.OpenSnapshot(bufio.NewReaderSize(f, 1<<20))
	if err != nil {
		return nil, fmt.Errorf("ingest: restore %s: %w", path, err)
	}
	return c, nil
}
