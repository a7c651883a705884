package ntppool

import (
	"testing"
	"time"

	"hitlist6/internal/addr"
	"hitlist6/internal/collector"
	"hitlist6/internal/simnet"
)

func TestStudyVantages(t *testing.T) {
	vs := StudyVantages()
	if len(vs) != 27 {
		t.Fatalf("got %d vantages, want 27 (paper §3)", len(vs))
	}
	counts := make(map[string]int)
	for i, v := range vs {
		if v.ID != i {
			t.Errorf("vantage %d has ID %d", i, v.ID)
		}
		counts[v.Country]++
	}
	if counts["US"] != 6 || counts["JP"] != 2 || counts["DE"] != 2 {
		t.Errorf("country mix: %v", counts)
	}
}

func TestNewRequiresVantages(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("empty pool should fail")
	}
}

func TestSelectPrefersSameCountry(t *testing.T) {
	p, err := New(StudyVantages())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if v := p.Select("US"); v.Country != "US" {
			t.Fatalf("US client directed to %s", v.Country)
		}
	}
	// India has a vantage: must stay in-country.
	if v := p.Select("IN"); v.Country != "IN" {
		t.Errorf("IN client directed to %s", v.Country)
	}
}

func TestSelectContinentFallback(t *testing.T) {
	p, err := New(StudyVantages())
	if err != nil {
		t.Fatal(err)
	}
	// China has no vantage; fall back to an Asian server.
	for i := 0; i < 10; i++ {
		v := p.Select("CN")
		if v.Continent != "AS" {
			t.Fatalf("CN client directed to %s (%s)", v.Country, v.Continent)
		}
	}
	// Unknown country: global tier, any server is acceptable.
	v := p.Select("ZZ")
	if v.ID < 0 || v.ID >= 27 {
		t.Errorf("global fallback returned bad vantage %+v", v)
	}
}

func TestSelectRoundRobinRotates(t *testing.T) {
	p, err := New(StudyVantages())
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for i := 0; i < 12; i++ {
		seen[p.Select("US").ID] = true
	}
	if len(seen) != 6 {
		t.Errorf("round robin used %d of 6 US vantages", len(seen))
	}
}

// TestCloneIsIndependent: a clone resumes the round robin where the
// original stood, and selections on either leave the other untouched.
func TestCloneIsIndependent(t *testing.T) {
	p, err := New(StudyVantages())
	if err != nil {
		t.Fatal(err)
	}
	p.Select("US")
	q := p.Clone()
	for i := 0; i < 5; i++ {
		if a, b := q.Select("US"), p.Select("US"); a != b {
			t.Fatalf("selection %d: clone picked %d, original %d", i, a.ID, b.ID)
		}
	}
	r := p.Clone()
	q.Select("US")
	if a, b := r.Select("US"), p.Select("US"); a != b {
		t.Fatalf("selecting on one clone moved another: %d vs %d", a.ID, b.ID)
	}
}

func TestVendorZones(t *testing.T) {
	if VendorZone(simnet.KindPhone) != "android.pool.ntp.org" {
		t.Error("phones should use the android vendor zone")
	}
	if VendorZone(simnet.KindComputer) != "pool.ntp.org" {
		t.Error("computers should use the default zone")
	}
}

func TestRunCollectsQueries(t *testing.T) {
	cfg := simnet.DefaultConfig(21, 0.03)
	cfg.Days = 20
	w, err := simnet.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(StudyVantages())
	if err != nil {
		t.Fatal(err)
	}
	c := collector.New()
	day := collector.New()
	dayStart := w.Origin.Add(10 * 24 * time.Hour)
	stats := Run(w, p, c, day, dayStart)

	if stats.Queries == 0 {
		t.Fatal("no queries replayed")
	}
	if c.NumAddrs() == 0 {
		t.Fatal("collector empty")
	}
	if day.NumAddrs() == 0 {
		t.Fatal("day collector empty")
	}
	if day.NumAddrs() >= c.NumAddrs() {
		t.Errorf("day slice (%d) should be smaller than full corpus (%d)",
			day.NumAddrs(), c.NumAddrs())
	}
	var used int
	for _, n := range stats.PerVantage {
		if n > 0 {
			used++
		}
	}
	if used < 10 {
		t.Errorf("only %d vantages saw traffic", used)
	}
	if stats.PerZone["android.pool.ntp.org"] == 0 {
		t.Error("no android-zone queries")
	}
	// The day collector must only contain sightings within the day.
	dayEnd := dayStart.Add(24 * time.Hour)
	day.Addrs(func(a addr.Addr, r collector.AddrRecord) bool {
		if r.First < dayStart.Unix() || r.Last >= dayEnd.Unix() {
			t.Errorf("day record for %s outside window: [%d, %d]", a, r.First, r.Last)
			return false
		}
		return true
	})
}
