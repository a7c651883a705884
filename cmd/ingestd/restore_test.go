package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"hitlist6/internal/ingest"
)

// TestRestoreOrEmpty pins the daemon's crash-recovery behaviour: a good
// chain (base plus delta) restores to the live corpus, a missing one
// starts empty silently, and a damaged base starts empty with a logged
// warning — never an abort, and never a partial corpus.
func TestRestoreOrEmpty(t *testing.T) {
	dir := t.TempDir()
	path := snapshotPath(dir)

	logged := func() (func(string, ...any), *[]string) {
		var lines []string
		return func(format string, args ...any) {
			lines = append(lines, fmt.Sprintf(format, args...))
		}, &lines
	}

	// Missing: empty start, no warning.
	logf, lines := logged()
	if c := restoreOrEmpty(path, logf); c != nil {
		t.Fatalf("missing checkpoint restored something: %v", c)
	}
	if len(*lines) != 0 {
		t.Fatalf("missing checkpoint warned: %v", *lines)
	}

	// Write a real chain through the pipeline: a base of 100 events,
	// then a delta of 50 more.
	pipe, err := ingest.New(ingest.DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	var bad atomic.Uint64
	for _, span := range [][2]int{{0, 100}, {100, 150}} {
		b := pipe.NewBatcher()
		for i := span[0]; i < span[1]; i++ {
			ingestLine(b, []byte(fmt.Sprintf("164367%04d 2001:db8::%x %d", i, i+1, i%27)), &bad)
		}
		b.Flush()
		if _, err := pipe.CheckpointChain(path); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(path + ".delta.000001"); err != nil {
		t.Fatalf("second checkpoint wrote no delta: %v", err)
	}
	live := pipe.Close().Checksum()

	// Good: restores base plus delta with an informational line.
	logf, lines = logged()
	c := restoreOrEmpty(path, logf)
	if c == nil {
		t.Fatal("good checkpoint did not restore")
	}
	if c.NumAddrs() != 150 || c.TotalObservations() != 150 || c.Checksum() != live {
		t.Fatalf("restored %d addrs / %d obs, want the live 150/150", c.NumAddrs(), c.TotalObservations())
	}
	if len(*lines) != 1 || !strings.Contains((*lines)[0], "restored") {
		t.Fatalf("restore logging off: %v", *lines)
	}

	// Damaged, at every kind of cut: truncations at framing-ish offsets
	// and bit flips. All must fall back to empty with a warning.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	damage := map[string][]byte{
		"empty file":      {},
		"half magic":      raw[:4],
		"header only":     raw[:12],
		"mid sections":    raw[:len(raw)/2],
		"missing trailer": raw[:len(raw)-7],
	}
	flipped := append([]byte(nil), raw...)
	flipped[len(raw)/3] ^= 0x10
	damage["bit flip"] = flipped
	garbage := append([]byte(nil), raw...)
	copy(garbage, "not a corpus snapshot at all")
	damage["overwritten head"] = garbage

	for name, body := range damage {
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}
		logf, lines = logged()
		if c := restoreOrEmpty(path, logf); c != nil {
			t.Errorf("%s: damaged checkpoint restored (%d addrs)", name, c.NumAddrs())
		}
		if len(*lines) != 1 || !strings.Contains((*lines)[0], "WARNING") {
			t.Errorf("%s: expected one warning, got %v", name, *lines)
		}
	}
}

// TestSnapshotPathShape keeps the on-disk layout stable: tooling and
// operators rely on corpus.snap inside the snapshot dir.
func TestSnapshotPathShape(t *testing.T) {
	if got := snapshotPath("/var/lib/ingestd"); got != filepath.Join("/var/lib/ingestd", "corpus.snap") {
		t.Fatalf("snapshotPath = %q", got)
	}
}

// FuzzIngestDatagram hardens the UDP line handler end to end: arbitrary
// datagram payloads must never panic the batcher path, blank/comment
// fragments must never count as malformed, and the accepted-event count
// must match a line-by-line reparse. Run continuously with:
//
//	go test ./cmd/ingestd -run '^$' -fuzz '^FuzzIngestDatagram$' -fuzztime 30s
func FuzzIngestDatagram(f *testing.F) {
	f.Add([]byte("1643673600 2001:db8::1 3\n1643673601 2001:db8::2\n"))
	f.Add([]byte("garbage\n\r\n# comment\n   \n"))
	f.Add([]byte("1643673600 2001:db8::1 3"))
	f.Add([]byte("\n\n\n"))
	f.Add([]byte{0, 1, 2, 0xff})
	f.Add([]byte("1643673600 ::ffff:192.0.2.1 31\r\n"))

	pipe, err := ingest.New(ingest.DefaultConfig(1))
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		b := pipe.NewBatcher()
		var bad atomic.Uint64
		added := ingestDatagram(b, data, &bad)
		b.Flush()

		// Reconcile against a direct reparse of each fragment.
		wantAdded, wantBad := 0, uint64(0)
		for _, line := range strings.Split(string(data), "\n") {
			trimmed := strings.TrimSpace(line)
			if trimmed == "" || trimmed[0] == '#' {
				continue
			}
			if _, err := ingest.ParseEvent(trimmed); err != nil {
				wantBad++
			} else {
				wantAdded++
			}
		}
		if added != wantAdded || bad.Load() != wantBad {
			t.Fatalf("datagram %q: added %d bad %d, want %d/%d",
				data, added, bad.Load(), wantAdded, wantBad)
		}
	})
}
