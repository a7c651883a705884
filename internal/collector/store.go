package collector

import (
	"io"
	"sync"
)

// Store is the single-writer merged view of sharded collection: ingest
// shards accumulate into private Collectors and periodically hand their
// snapshots to one merger goroutine, which folds them in here under the
// write lock. Readers (HTTP stat endpoints, analyses running mid-ingest)
// take the read lock and see a consistent, slightly-stale corpus.
//
// The Collector itself stays single-writer — Store adds the concurrency
// boundary around it instead of pushing locks into the per-sighting hot
// path, which the sharded pipeline keeps lock-free.
type Store struct {
	mu sync.RWMutex
	c  *Collector
	// merges counts ApplyShard calls; useful for snapshot bookkeeping.
	merges uint64
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{c: New()}
}

// ApplyShard folds one shard snapshot into the merged view. The store
// takes ownership: the snapshot must not be used again by its shard
// afterwards (shards swap in a fresh Collector before handing one
// over), which lets the first snapshot into the empty store move over
// wholesale instead of being re-inserted record by record (see
// Collector.Absorb).
func (s *Store) ApplyShard(part *Collector) {
	if part == nil {
		return
	}
	s.mu.Lock()
	s.c.Absorb(part)
	s.merges++
	s.mu.Unlock()
}

// View runs fn with read access to the merged corpus. fn must not retain
// the *Collector or mutate it; writes are the merger's alone.
func (s *Store) View(fn func(*Collector)) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	fn(s.c)
}

// NumAddrs returns the merged unique-address count.
func (s *Store) NumAddrs() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.c.NumAddrs()
}

// NumIIDs returns the merged unique-IID count.
func (s *Store) NumIIDs() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.c.NumIIDs()
}

// TotalObservations returns the merged raw sighting count.
func (s *Store) TotalObservations() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.c.TotalObservations()
}

// Merges returns how many shard snapshots have been applied.
func (s *Store) Merges() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.merges
}

// MemoryFootprint estimates the merged corpus's resident bytes (see
// Collector.MemoryFootprint): the number stat endpoints export as
// corpus_bytes.
func (s *Store) MemoryFootprint() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.c.MemoryFootprint()
}

// Checksum returns the canonical checksum of the merged corpus.
func (s *Store) Checksum() [32]byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.c.Checksum()
}

// CheckpointFull writes a full snapshot and advances the delta-chain
// watermark to sequence 0, atomically with respect to ApplyShard: the
// write lock is held across both, so no observation can land between
// the bytes and the mark and silently escape the next delta. The caller
// must make the bytes durable before relying on the chain (the ingest
// layer writes through AtomicWriteFile).
//
//lint:durable-path full checkpoints anchor the delta chain
func (s *Store) CheckpointFull(w io.Writer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.c.Snapshot(w); err != nil {
		return err
	}
	s.c.MarkCheckpointedFull()
	return nil
}

// CheckpointDelta writes the blocks dirtied since the last checkpoint
// and advances the chain sequence, under the same write-lock atomicity
// as CheckpointFull. It fails if no base checkpoint exists; on write
// error the watermark does not advance, so the caller can fall back to
// a full checkpoint without losing anything.
//
//lint:durable-path delta checkpoints extend the chain
func (s *Store) CheckpointDelta(w io.Writer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.c.SnapshotDelta(w); err != nil {
		return err
	}
	s.c.MarkCheckpointedDelta()
	return nil
}

// CheckpointSeq returns the merged corpus's checkpoint chain position
// (see Collector.CheckpointSeq).
func (s *Store) CheckpointSeq() (uint64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.c.CheckpointSeq()
}

// Detach returns the merged Collector and resets the store to empty. It
// is how a finished ingest run hands the corpus to the (single-threaded)
// analysis layer without copying: after Detach the caller owns the
// Collector exclusively.
func (s *Store) Detach() *Collector {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.c
	s.c = New()
	s.merges = 0
	return c
}
