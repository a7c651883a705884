package collector

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"hitlist6/internal/addr"
	"hitlist6/internal/snapfmt"
)

// Delta snapshots are the write-side half of the tiered corpus: instead
// of re-serializing O(corpus) on every checkpoint, a delta carries only
// the slab blocks dirtied since the last checkpoint plus every block of
// new records past the watermarks (see dirty.go). A chain is one full
// snapshot (sequence 0) followed by deltas 1..k; restore is
// RestoreChain, and folding a chain back into a single full snapshot
// (compaction) is simply restoring it and writing Snapshot again.
//
// What a delta deliberately does NOT carry:
//
//   - Singleton-IID references: fully derivable. A new address whose
//     IID has no promoted entry is a singleton; promotions that
//     happened since the base always materialize a new promoted entry,
//     which the delta carries, and applying it overwrites the stale
//     singleton slot exactly as the live path did.
//   - Prefix sets: existing records never change their keys (ApplyDelta
//     rejects a delta that tries), so only new addresses can introduce
//     prefixes, and apply derives them incrementally.
//
// Chain linkage is by (parentSeq, base record counts, base total):
// applying a delta to anything but the state it was cut against fails
// fast instead of producing a silently wrong corpus. Every structural
// lie a block can tell — overlap gaps, count mismatches, key rewrites
// below the watermark, span-chain damage — is an error, never a panic
// and never a partially mutated result that escapes (on error the
// target collector must be discarded; RestoreChain does).
//
//lint:durable-path delta snapshots are the incremental half of crash recovery
const (
	deltaMagic   = "h6delta1"
	deltaVersion = 1

	secDeltaMeta  = 1
	secDeltaAddrs = 2
	secDeltaIIDs  = 3
	secDeltaSpans = 4

	// deltaMetaWire: parentSeq, seq, baseTotal, total, baseAddrN, addrN,
	// baseIIDN, iidN, baseSpanN, spanN — ten big-endian u64s.
	deltaMetaWire = 80
	// deltaBlockHdr prefixes each block: blockIdx u32, record count u32.
	deltaBlockHdr = 8
)

// SnapshotDelta writes the blocks dirtied or grown since the last
// checkpoint. It is read-only on c — the caller advances the watermark
// with MarkCheckpointedDelta once the bytes are durable — and errors if
// the collector has no checkpoint baseline to delta against. Like
// Snapshot it does not buffer; hand it a *bufio.Writer for raw files.
func (c *Collector) SnapshotDelta(w io.Writer) error {
	if !c.ckpt.based {
		return fmt.Errorf("collector: delta without a base checkpoint")
	}
	sw, err := snapfmt.NewWriter(w, deltaMagic, deltaVersion)
	if err != nil {
		return err
	}

	if err := sw.Begin(secDeltaMeta, deltaMetaWire); err != nil {
		return err
	}
	var meta [deltaMetaWire]byte
	binary.BigEndian.PutUint64(meta[0:], c.ckpt.seq)
	binary.BigEndian.PutUint64(meta[8:], c.ckpt.seq+1)
	binary.BigEndian.PutUint64(meta[16:], c.ckpt.baseTotal)
	binary.BigEndian.PutUint64(meta[24:], c.total)
	binary.BigEndian.PutUint64(meta[32:], uint64(c.ckpt.addrBase))
	binary.BigEndian.PutUint64(meta[40:], uint64(c.addrRecs.n))
	binary.BigEndian.PutUint64(meta[48:], uint64(c.ckpt.iidBase))
	binary.BigEndian.PutUint64(meta[56:], uint64(c.iidRecs.n))
	binary.BigEndian.PutUint64(meta[64:], uint64(c.ckpt.spanBase))
	binary.BigEndian.PutUint64(meta[72:], uint64(c.spans.n))
	if _, err := sw.Write(meta[:]); err != nil {
		return err
	}
	if err := sw.End(); err != nil {
		return err
	}

	buf := make([]byte, 0, wireBatch*addrEntryWire)

	addrBlocks := deltaBlocks(c.ckpt.addrBase, c.addrRecs.n, &c.ckpt.dirtyAddr)
	if err := writeDeltaSection(sw, secDeltaAddrs, addrBlocks, addrEntryWire, &buf, func(i uint32, b []byte) []byte {
		e := c.addrRecs.at(i)
		b = append(b, e.key[:]...)
		b = binary.BigEndian.AppendUint64(b, uint64(e.rec.First))
		b = binary.BigEndian.AppendUint64(b, uint64(e.rec.Last))
		b = binary.BigEndian.AppendUint32(b, e.rec.Count)
		return binary.BigEndian.AppendUint32(b, e.rec.Servers)
	}); err != nil {
		return err
	}

	iidBlocks := deltaBlocks(c.ckpt.iidBase, c.iidRecs.n, &c.ckpt.dirtyIID)
	if err := writeDeltaSection(sw, secDeltaIIDs, iidBlocks, iidEntryWire, &buf, func(i uint32, b []byte) []byte {
		e := c.iidRecs.at(i)
		b = binary.BigEndian.AppendUint64(b, uint64(e.key))
		b = binary.BigEndian.AppendUint64(b, uint64(e.first))
		b = binary.BigEndian.AppendUint64(b, uint64(e.last))
		b = binary.BigEndian.AppendUint32(b, e.count)
		b = binary.BigEndian.AppendUint32(b, e.spans)
		return binary.BigEndian.AppendUint32(b, e.p64n)
	}); err != nil {
		return err
	}

	spanBlocks := deltaBlocks(c.ckpt.spanBase, c.spans.n, &c.ckpt.dirtySpan)
	if err := writeDeltaSection(sw, secDeltaSpans, spanBlocks, spanEntryWire, &buf, func(i uint32, b []byte) []byte {
		n := c.spans.at(i)
		b = binary.BigEndian.AppendUint64(b, uint64(n.p64))
		b = binary.BigEndian.AppendUint64(b, uint64(n.first))
		b = binary.BigEndian.AppendUint64(b, uint64(n.last))
		return binary.BigEndian.AppendUint32(b, n.next)
	}); err != nil {
		return err
	}

	return sw.Close()
}

// writeDeltaSection emits one slab's block list: u32 block count, then
// per block [blockIdx u32][n u32][n fixed-size entries].
func writeDeltaSection(sw *snapfmt.Writer, id uint32, blocks []deltaBlock, entry int, buf *[]byte, enc func(i uint32, b []byte) []byte) error {
	size := uint64(4)
	for _, bl := range blocks {
		size += deltaBlockHdr + uint64(bl.hi-bl.lo)*uint64(entry)
	}
	if err := sw.Begin(id, size); err != nil {
		return err
	}
	b := (*buf)[:0]
	b = binary.BigEndian.AppendUint32(b, uint32(len(blocks)))
	var err error
	for _, bl := range blocks {
		b = binary.BigEndian.AppendUint32(b, bl.idx)
		b = binary.BigEndian.AppendUint32(b, bl.hi-bl.lo)
		for i := bl.lo; i < bl.hi; i++ {
			b = enc(i, b)
			if b = flushBatch(sw, b, &err); err != nil {
				return err
			}
		}
	}
	err = endSection(sw, b)
	*buf = b[:0]
	return err
}

// ErrDeltaBase is the linkage failure of an intact delta — every
// section's framing and CRC check out — whose sequence extends c's chain
// position but whose base counts are not c's: it was cut against
// another corpus, typically the chain that c, a newer full snapshot,
// superseded. ApplyDelta returns it without mutating c, so c stays
// usable.
var ErrDeltaBase = errors.New("collector: delta cut against a different base")

// ApplyDelta overlays one delta onto c, which must be exactly the chain
// state the delta was cut against (seq, counts and total all match — a
// collector freshly restored by OpenSnapshot, or one that already
// applied the preceding deltas). On success c advances to the delta's
// sequence. On any error but ErrDeltaBase c may be partially mutated
// and MUST be discarded; RestoreChain wraps this contract for callers
// restoring from files.
func (c *Collector) ApplyDelta(r io.Reader) error {
	sr, err := snapfmt.NewReader(r, deltaMagic)
	if err != nil {
		return fmt.Errorf("collector: delta: %w", err)
	}
	if v := sr.Version(); v != deltaVersion {
		return fmt.Errorf("collector: delta version %d unsupported (have %d)", v, deltaVersion)
	}

	if err := expectSection(sr, secDeltaMeta, deltaMetaWire); err != nil {
		return err
	}
	var meta [deltaMetaWire]byte
	if _, err := io.ReadFull(sr, meta[:]); err != nil {
		return fmt.Errorf("collector: delta meta: %w", err)
	}
	if err := sr.End(); err != nil {
		return fmt.Errorf("collector: delta meta: %w", err)
	}
	parentSeq := binary.BigEndian.Uint64(meta[0:])
	seq := binary.BigEndian.Uint64(meta[8:])
	baseTotal := binary.BigEndian.Uint64(meta[16:])
	total := binary.BigEndian.Uint64(meta[24:])
	baseAddrN := binary.BigEndian.Uint64(meta[32:])
	addrN := binary.BigEndian.Uint64(meta[40:])
	baseIIDN := binary.BigEndian.Uint64(meta[48:])
	iidN := binary.BigEndian.Uint64(meta[56:])
	baseSpanN := binary.BigEndian.Uint64(meta[64:])
	spanN := binary.BigEndian.Uint64(meta[72:])

	if !c.ckpt.based || parentSeq != c.ckpt.seq {
		return fmt.Errorf("collector: delta parent seq %d does not extend chain at seq %d", parentSeq, c.ckpt.seq)
	}
	if seq != parentSeq+1 {
		return fmt.Errorf("collector: delta seq %d does not follow parent %d", seq, parentSeq)
	}
	if baseTotal != c.total || baseAddrN != uint64(c.addrRecs.n) ||
		baseIIDN != uint64(c.iidRecs.n) || baseSpanN != uint64(c.spans.n) {
		if err := skipRest(sr); err != nil {
			return fmt.Errorf("collector: delta: %w", err)
		}
		return fmt.Errorf("%w (%d obs, %d/%d/%d records; corpus has %d obs, %d/%d/%d)",
			ErrDeltaBase, baseTotal, baseAddrN, baseIIDN, baseSpanN, c.total, c.addrRecs.n, c.iidRecs.n, c.spans.n)
	}
	if addrN > uint64(maxSlabIndex) || iidN > uint64(maxSlabIndex) || spanN > uint64(maxSlabIndex) {
		return fmt.Errorf("collector: delta counts %d/%d/%d exceed slab addressing", addrN, iidN, spanN)
	}
	if addrN < baseAddrN || iidN < baseIIDN || spanN < baseSpanN || total < baseTotal {
		return fmt.Errorf("collector: delta shrinks the corpus")
	}

	buf := make([]byte, wireBatch*addrEntryWire)

	if err := applyDeltaSection(sr, secDeltaAddrs, buf, baseAddrN, addrN, addrEntryWire,
		func() uint32 { return c.addrRecs.n },
		func(i uint32, b []byte) error {
			existing := i < uint32(baseAddrN)
			var e *addrEntry
			if existing {
				e = c.addrRecs.at(i)
				if string(e.key[:]) != string(b[0:16]) {
					return fmt.Errorf("block rewrites address key at %d", i)
				}
			} else {
				e = c.addrRecs.at(c.addrRecs.alloc())
				copy(e.key[:], b[0:16])
			}
			e.rec.First = int64(binary.BigEndian.Uint64(b[16:]))
			e.rec.Last = int64(binary.BigEndian.Uint64(b[24:]))
			e.rec.Count = binary.BigEndian.Uint32(b[32:])
			e.rec.Servers = binary.BigEndian.Uint32(b[36:])
			return nil
		}); err != nil {
		return fmt.Errorf("collector: delta addrs: %w", err)
	}
	if uint64(c.addrRecs.n) != addrN {
		return fmt.Errorf("collector: delta addrs: blocks cover %d records, meta declares %d", c.addrRecs.n, addrN)
	}

	if err := applyDeltaSection(sr, secDeltaIIDs, buf, baseIIDN, iidN, iidEntryWire,
		func() uint32 { return c.iidRecs.n },
		func(i uint32, b []byte) error {
			key := binary.BigEndian.Uint64(b[0:])
			var e *iidEntry
			if i < uint32(baseIIDN) {
				e = c.iidRecs.at(i)
				if uint64(e.key) != key {
					return fmt.Errorf("block rewrites IID key at %d", i)
				}
			} else {
				e = c.iidRecs.at(c.iidRecs.alloc())
				e.key = addr.IID(key)
			}
			e.first = int64(binary.BigEndian.Uint64(b[8:]))
			e.last = int64(binary.BigEndian.Uint64(b[16:]))
			e.count = binary.BigEndian.Uint32(b[24:])
			e.spans = binary.BigEndian.Uint32(b[28:])
			e.p64n = binary.BigEndian.Uint32(b[32:])
			if e.spans != spanNone && uint64(e.spans) >= spanN {
				return fmt.Errorf("IID %d span head %d out of %d", i, e.spans, spanN)
			}
			return nil
		}); err != nil {
		return fmt.Errorf("collector: delta iids: %w", err)
	}
	if uint64(c.iidRecs.n) != iidN {
		return fmt.Errorf("collector: delta iids: blocks cover %d records, meta declares %d", c.iidRecs.n, iidN)
	}

	if err := applyDeltaSection(sr, secDeltaSpans, buf, baseSpanN, spanN, spanEntryWire,
		func() uint32 { return c.spans.n },
		func(i uint32, b []byte) error {
			p64 := binary.BigEndian.Uint64(b[0:])
			var n *spanNode
			if i < uint32(baseSpanN) {
				n = c.spans.at(i)
				if uint64(n.p64) != p64 {
					// A span node's /64 is fixed at allocation; only its
					// window and chain link ever change.
					return fmt.Errorf("block rewrites span %d's /64", i)
				}
			} else {
				n = c.spans.at(c.spans.alloc())
				n.p64 = addr.Prefix64(p64)
			}
			n.first = int64(binary.BigEndian.Uint64(b[8:]))
			n.last = int64(binary.BigEndian.Uint64(b[16:]))
			n.next = binary.BigEndian.Uint32(b[24:])
			if n.next != spanNone && uint64(n.next) >= spanN {
				return fmt.Errorf("span %d chains to %d out of %d", i, n.next, spanN)
			}
			return nil
		}); err != nil {
		return fmt.Errorf("collector: delta spans: %w", err)
	}
	if uint64(c.spans.n) != spanN {
		return fmt.Errorf("collector: delta spans: blocks cover %d records, meta declares %d", c.spans.n, spanN)
	}

	if _, _, err := sr.Next(); err != io.EOF {
		if err == nil {
			return fmt.Errorf("collector: delta carries trailing sections")
		}
		return fmt.Errorf("collector: delta end: %w", err)
	}

	if err := c.indexDeltaRecords(uint32(baseAddrN), uint32(baseIIDN)); err != nil {
		return err
	}
	if err := c.validateSpans(); err != nil {
		return fmt.Errorf("collector: delta: %w", err)
	}
	c.total = total
	c.markClean(seq)
	return nil
}

// applyDeltaSection streams one slab's block list, overwriting existing
// records and appending new ones. Blocks must arrive in strictly
// ascending index order with the exact write-side shape hi ==
// min(newN, (idx+1)*deltaBlockSize): anything else is a gap or overlap.
func applyDeltaSection(sr *snapfmt.Reader, id uint32, scratch []byte, baseN, newN uint64, entry int,
	slabLen func() uint32, apply func(i uint32, b []byte) error) error {

	gotID, size, err := sr.Next()
	if err != nil {
		if err == io.EOF {
			return fmt.Errorf("delta ends before section %d", id)
		}
		return err
	}
	if gotID != id {
		return fmt.Errorf("section %d where %d expected", gotID, id)
	}
	var hdr [4]byte
	if _, err := io.ReadFull(sr, hdr[:]); err != nil {
		return err
	}
	blocks := binary.BigEndian.Uint32(hdr[:])
	maxBlocks := uint64(0)
	if newN > 0 {
		maxBlocks = (newN-1)>>deltaBlockBits + 1
	}
	if uint64(blocks) > maxBlocks {
		return fmt.Errorf("%d blocks over a %d-record slab", blocks, newN)
	}
	declared := uint64(4)
	prev := int64(-1)
	for bi := uint32(0); bi < blocks; bi++ {
		var bh [deltaBlockHdr]byte
		if _, err := io.ReadFull(sr, bh[:]); err != nil {
			return err
		}
		idx := binary.BigEndian.Uint32(bh[0:])
		n := binary.BigEndian.Uint32(bh[4:])
		if int64(idx) <= prev {
			return fmt.Errorf("block %d out of order", idx)
		}
		prev = int64(idx)
		lo := uint64(idx) << deltaBlockBits
		hi := lo + uint64(n)
		wantHi := (uint64(idx) + 1) << deltaBlockBits
		if wantHi > newN {
			wantHi = newN
		}
		if n == 0 || hi != wantHi {
			return fmt.Errorf("block %d covers [%d,%d), want [%d,%d)", idx, lo, hi, lo, wantHi)
		}
		if lo > uint64(slabLen()) {
			return fmt.Errorf("block %d leaves a gap at %d", idx, slabLen())
		}
		declared += deltaBlockHdr + uint64(n)*uint64(entry)
		per := uint64(len(scratch)) / uint64(entry)
		for done := uint64(0); done < uint64(n); {
			batch := min(uint64(n)-done, per)
			b := scratch[:batch*uint64(entry)]
			if _, err := io.ReadFull(sr, b); err != nil {
				return err
			}
			for k := uint64(0); k < batch; k++ {
				if err := apply(uint32(lo+done+k), b[k*uint64(entry):(k+1)*uint64(entry)]); err != nil {
					return err
				}
			}
			done += batch
		}
	}
	if declared != size {
		return fmt.Errorf("section declares %d bytes but blocks cover %d", size, declared)
	}
	return sr.End()
}

// indexDeltaRecords wires the new records into the live index tables:
// new addresses and their prefixes, new promoted IIDs (overwriting the
// slot of a singleton they promote), and derived singleton references
// for new addresses whose IID has no promoted entry. Existing records'
// index entries are untouched — in-place mutations never change keys.
func (c *Collector) indexDeltaRecords(baseAddrN, baseIIDN uint32) error {
	if need := tableSizeFor(uint64(c.addrRecs.n)); need > len(c.addrIdx) {
		c.resizeAddrIdx(need)
	}
	for i := baseAddrN; i < c.addrRecs.n; i++ {
		e := c.addrRecs.at(i)
		_, slot, ok := c.findAddr(e.key)
		if ok {
			return fmt.Errorf("collector: delta duplicates address at record %d", i)
		}
		c.addrIdx[slot] = i + 1
		c.p48s.insert(uint64(e.key.P48()))
		c.p64s.insert(uint64(e.key.P64()))
	}

	// Worst case every new promoted entry and every new address adds an
	// IID table entry; presizing once means no grow mid-loop.
	maxIIDs := uint64(c.iidUsed) + uint64(c.iidRecs.n-baseIIDN) + uint64(c.addrRecs.n-baseAddrN)
	if need := tableSizeFor(maxIIDs); need > len(c.iidIdx) {
		c.resizeIIDIdx(need)
	}
	for ri := baseIIDN; ri < c.iidRecs.n; ri++ {
		key := c.iidRecs.at(ri).key
		ref, slot, ok := c.findIID(key)
		switch {
		case !ok:
			c.iidIdx[slot] = (ri | promotedTag) + 1
			c.iidUsed++
		case ref&promotedTag == 0:
			// The new promoted entry supersedes an existing singleton: the
			// promotion the live path performed. findIID's slot is the
			// occupied slot on a hit, so this overwrites in place.
			c.iidIdx[slot] = (ri | promotedTag) + 1
		default:
			return fmt.Errorf("collector: delta duplicates promoted IID %016x", uint64(key))
		}
	}
	for i := baseAddrN; i < c.addrRecs.n; i++ {
		iid := c.addrRecs.at(i).key.IID()
		ref, slot, ok := c.findIID(iid)
		switch {
		case !ok:
			c.iidIdx[slot] = i + 1
			c.iidUsed++
		case ref&promotedTag != 0:
			// Promoted entry (new or pre-existing) already covers it.
		default:
			// Two addresses share an unpromoted IID: the live path would
			// have promoted, so a valid delta cannot produce this.
			return fmt.Errorf("collector: delta leaves IID %016x shared but unpromoted", uint64(iid))
		}
	}
	return nil
}

// skipRest reads the rest of a stream, checking its framing and every
// section's CRC without decoding the payloads.
func skipRest(sr *snapfmt.Reader) error {
	for {
		if _, _, err := sr.Next(); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
		if _, err := io.Copy(io.Discard, sr); err != nil {
			return err
		}
		if err := sr.End(); err != nil {
			return err
		}
	}
}

// RestoreChain restores a checkpoint chain: a full snapshot stream
// followed by its deltas in sequence order. Any failure — damage,
// wrong order, wrong base — returns an error and no collector; a
// partially applied chain never escapes.
func RestoreChain(base io.Reader, deltas ...io.Reader) (*Collector, error) {
	c, err := OpenSnapshot(base)
	if err != nil {
		return nil, err
	}
	for i, d := range deltas {
		if err := c.ApplyDelta(d); err != nil {
			return nil, fmt.Errorf("collector: chain delta %d: %w", i+1, err)
		}
	}
	return c, nil
}
