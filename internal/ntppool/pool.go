// Package ntppool models the NTP Pool Project's server selection: a
// DNS round-robin that prefers servers geographically near the client
// (§2.3), plus vendor zones. It also provides the study driver that
// replays a simulated world's NTP queries through the pool into a passive
// collector — the paper's §3 methodology in code.
package ntppool

import (
	"fmt"
	"maps"
	"time"

	"hitlist6/internal/collector"
	"hitlist6/internal/simnet"
)

// Vantage is one pool server operated by the measurement study.
type Vantage struct {
	// ID is the server index (0-based), used as the collector's server
	// bit.
	ID int
	// Country is the ISO alpha-2 country the VPS runs in.
	Country string
	// Continent is a coarse region code used as the geo fallback tier.
	Continent string
}

// Pool is the DNS round-robin selector over the study's vantage servers.
type Pool struct {
	vantages    []Vantage
	byCountry   map[string][]int
	byContinent map[string][]int
	rrState     map[string]int // round-robin cursor per selection pool key
}

// continentOf maps the countries used by the study and the simulator to
// coarse continent codes. Unknown countries fall into "XX" and use the
// global tier.
var continentOf = map[string]string{
	"US": "NA", "MX": "NA", "CA": "NA",
	"BR": "SA", "AR": "SA", "CL": "SA", "CO": "SA",
	"DE": "EU", "NL": "EU", "PL": "EU", "BG": "EU", "ES": "EU", "SE": "EU",
	"GB": "EU", "FR": "EU", "LU": "EU", "IT": "EU", "CZ": "EU", "RO": "EU",
	"UA": "EU", "TR": "EU",
	"JP": "AS", "KR": "AS", "CN": "AS", "HK": "AS", "TW": "AS", "SG": "AS",
	"IN": "AS", "ID": "AS", "BH": "AS", "VN": "AS", "TH": "AS", "MY": "AS",
	"PH": "AS",
	"AU": "OC",
	"ZA": "AF", "EG": "AF", "NG": "AF",
}

// ContinentOf returns the continent code for a country ("XX" if unknown).
func ContinentOf(country string) string {
	if c, ok := continentOf[country]; ok {
		return c
	}
	return "XX"
}

// StudyVantages returns the paper's 27 vantage points: 6 US, 2 JP, 2 DE
// and 1 each in 17 further countries (§3 "Vantage Points").
func StudyVantages() []Vantage {
	countries := []string{
		"US", "US", "US", "US", "US", "US",
		"JP", "JP",
		"DE", "DE",
		"AU", "BH", "BR", "BG", "HK", "IN", "ID", "MX", "NL", "PL",
		"SG", "ZA", "KR", "ES", "SE", "TW", "GB",
	}
	out := make([]Vantage, len(countries))
	for i, cc := range countries {
		out[i] = Vantage{ID: i, Country: cc, Continent: ContinentOf(cc)}
	}
	return out
}

// New builds a pool over the given vantage servers.
func New(vantages []Vantage) (*Pool, error) {
	if len(vantages) == 0 {
		return nil, fmt.Errorf("ntppool: no vantages")
	}
	p := &Pool{
		vantages:    append([]Vantage(nil), vantages...),
		byCountry:   make(map[string][]int),
		byContinent: make(map[string][]int),
		rrState:     make(map[string]int),
	}
	for i, v := range p.vantages {
		p.byCountry[v.Country] = append(p.byCountry[v.Country], i)
		p.byContinent[v.Continent] = append(p.byContinent[v.Continent], i)
	}
	return p, nil
}

// Clone returns a pool with the same servers and round-robin position,
// whose later selections advance independently of p's.
func (p *Pool) Clone() *Pool {
	q := *p
	q.rrState = maps.Clone(p.rrState)
	return &q
}

// Vantages returns the pool's servers.
func (p *Pool) Vantages() []Vantage { return p.vantages }

// Select returns the vantage a client from the given country is directed
// to. Selection follows the pool's geo DNS behaviour: same-country servers
// first, then same-continent, then the global pool, rotating round-robin
// within the chosen tier.
func (p *Pool) Select(clientCountry string) Vantage {
	if idxs, ok := p.byCountry[clientCountry]; ok && len(idxs) > 0 {
		return p.pick("c:"+clientCountry, idxs)
	}
	cont := ContinentOf(clientCountry)
	if idxs, ok := p.byContinent[cont]; ok && len(idxs) > 0 {
		return p.pick("k:"+cont, idxs)
	}
	all := make([]int, len(p.vantages))
	for i := range all {
		all[i] = i
	}
	return p.pick("g", all)
}

func (p *Pool) pick(key string, idxs []int) Vantage {
	cur := p.rrState[key]
	p.rrState[key] = (cur + 1) % len(idxs)
	return p.vantages[idxs[cur%len(idxs)]]
}

// VendorZone returns the pool zone a device kind's software would query
// (vendor zones per §2.3: android, ubuntu, centos, ...).
func VendorZone(kind simnet.DeviceKind) string {
	switch kind {
	case simnet.KindPhone:
		return "android.pool.ntp.org"
	case simnet.KindIoT:
		return "iot.pool.ntp.org"
	case simnet.KindServer:
		return "centos.pool.ntp.org"
	case simnet.KindCPE:
		return "openwrt.pool.ntp.org"
	default:
		return "pool.ntp.org"
	}
}

// RunStats summarizes a study replay.
type RunStats struct {
	Queries       uint64
	PerVantage    []uint64
	PerZone       map[string]uint64
	UniqueClients int
}

// Run replays the world's NTP client behaviour through the pool into the
// collector. An optional dayCollector receives only queries within
// [dayStart, dayStart+24h), reproducing the paper's single-day slice
// (1 July 2022) used by Figures 4b and 5.
func Run(w *simnet.World, p *Pool, c *collector.Collector,
	dayCollector *collector.Collector, dayStart time.Time) RunStats {

	stats := RunStats{
		PerVantage: make([]uint64, len(p.vantages)),
		PerZone:    make(map[string]uint64),
	}
	dayEnd := dayStart.Add(24 * time.Hour)
	w.GenerateQueries(func(q simnet.Query) {
		country := w.Geo.Country(q.Addr)
		v := p.Select(country)
		c.Observe(q.Addr, q.Time, v.ID)
		if dayCollector != nil && !q.Time.Before(dayStart) && q.Time.Before(dayEnd) {
			dayCollector.Observe(q.Addr, q.Time, v.ID)
		}
		stats.Queries++
		stats.PerVantage[v.ID]++
		stats.PerZone[VendorZone(q.Device.Kind)]++
	})
	stats.UniqueClients = c.NumAddrs()
	return stats
}
