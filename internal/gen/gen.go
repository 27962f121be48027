// Package gen is the workload substrate of this reproduction: a seeded
// simulator of the two operational networks the paper studies.
//
// The paper's datasets — months of router syslog from a tier-1 ISP backbone
// (dataset A) and a commercial IPTV backbone (dataset B) — are proprietary.
// What SyslogDigest actually consumes from them, though, is structure:
// vendor-shaped message text, co-occurrence of templates triggered by one
// network condition, timer-driven periodicities, and cross-router symmetry
// at link/session/path endpoints. The simulator reproduces exactly those
// properties on a generated topology (netconf): network conditions arrive
// as Poisson processes, and each condition emits the correlated,
// vendor-correct message bursts a real incident would (link-flap episodes
// with line-protocol and routing-protocol fallout, controller instability,
// BGP session flaps, CPU threshold pairs, timer-driven TCP bad-auth chatter,
// scan noise, and — for dataset B — the §6.1 PIM dual-failure scenario with
// its five-minute secondary-path retry timer).
//
// Alongside the message stream the simulator records ground-truth Condition
// records, which downstream substrates (trouble tickets, evaluation) use as
// the oracle the paper obtained from operations personnel.
package gen

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"time"

	"syslogdigest/internal/netconf"
	"syslogdigest/internal/syslogmsg"
)

// DatasetKind selects which of the paper's two networks to simulate.
type DatasetKind int

const (
	// DatasetA is the tier-1 ISP backbone (vendor V1 syntax).
	DatasetA DatasetKind = iota
	// DatasetB is the IPTV backbone (vendor V2 syntax).
	DatasetB
)

// String names the dataset as the paper does.
func (k DatasetKind) String() string {
	if k == DatasetB {
		return "B"
	}
	return "A"
}

// Rates are expected condition counts per simulated day for the whole
// network. Zero values take kind-specific defaults.
type Rates struct {
	LinkFlap    float64 // flapping-link episodes
	Controller  float64 // controller instability episodes (A only)
	BGPFlap     float64 // BGP session flap episodes
	CPUSpike    float64 // CPU threshold crossings
	PeriodicMsg float64 // timer-driven message episodes (TCP bad auth / login scans)
	Noise       float64 // singleton noise messages (ACL denies, SAP updates)
	Config      float64 // configuration-change messages
	EnvAlarm    float64 // environmental/hardware alarms
	TunnelFlap  float64 // LSP/tunnel flaps
	PIMFailure  float64 // PIM dual-failure scenarios (B only)
}

func defaultRates(kind DatasetKind) Rates {
	if kind == DatasetB {
		return Rates{
			LinkFlap:    10,
			BGPFlap:     5,
			CPUSpike:    6,
			PeriodicMsg: 3,
			Noise:       15,
			Config:      5,
			EnvAlarm:    2,
			TunnelFlap:  4,
			PIMFailure:  1,
		}
	}
	return Rates{
		LinkFlap:    10,
		Controller:  3,
		BGPFlap:     8,
		CPUSpike:    12,
		PeriodicMsg: 3,
		Noise:       20,
		Config:      10,
		EnvAlarm:    5,
		TunnelFlap:  6,
	}
}

func (r Rates) withDefaults(kind DatasetKind) Rates {
	d := defaultRates(kind)
	pick := func(v, dv float64) float64 {
		if v == 0 {
			return dv
		}
		if v < 0 { // explicit "off"
			return 0
		}
		return v
	}
	return Rates{
		LinkFlap:    pick(r.LinkFlap, d.LinkFlap),
		Controller:  pick(r.Controller, d.Controller),
		BGPFlap:     pick(r.BGPFlap, d.BGPFlap),
		CPUSpike:    pick(r.CPUSpike, d.CPUSpike),
		PeriodicMsg: pick(r.PeriodicMsg, d.PeriodicMsg),
		Noise:       pick(r.Noise, d.Noise),
		Config:      pick(r.Config, d.Config),
		EnvAlarm:    pick(r.EnvAlarm, d.EnvAlarm),
		TunnelFlap:  pick(r.TunnelFlap, d.TunnelFlap),
		PIMFailure:  pick(r.PIMFailure, d.PIMFailure),
	}
}

// Spec describes one dataset to generate.
type Spec struct {
	Kind      DatasetKind
	Routers   int // default 60
	Seed      int64
	Start     time.Time     // default 2009-09-01 00:00:00 UTC
	Duration  time.Duration // default 24h
	RateScale float64       // multiplies all rates; default 1
	Rates     Rates
}

func (s Spec) normalize() Spec {
	if s.Routers == 0 {
		s.Routers = 60
	}
	if s.Start.IsZero() {
		s.Start = time.Date(2009, 9, 1, 0, 0, 0, 0, time.UTC)
	}
	if s.Duration == 0 {
		s.Duration = 24 * time.Hour
	}
	if s.RateScale == 0 {
		s.RateScale = 1
	}
	s.Rates = s.Rates.withDefaults(s.Kind)
	return s
}

// Condition is one ground-truth network condition and its footprint.
type Condition struct {
	Kind     string
	Start    time.Time
	End      time.Time
	Routers  []string
	Detail   string
	Region   string
	Messages int
}

// Dataset is a generated corpus: the network, the time-sorted message
// stream, and the ground-truth conditions that produced it.
type Dataset struct {
	Spec       Spec
	Net        *netconf.Network
	Messages   []syslogmsg.Message
	Conditions []Condition
	// Labels is parallel to Messages: Labels[i] is the index in Conditions
	// of the condition that emitted Messages[i], or -1 for a background
	// message that belongs to none.
	Labels []int32
}

// sim carries generation state.
type sim struct {
	spec   Spec
	net    *netconf.Network
	rng    *rand.Rand
	msgs   []syslogmsg.Message
	labels []int32 // parallel to msgs: the emitting condition, -1 for none
	cond   []Condition
	cur    int // index of the condition being emitted, -1 for none
}

// Generate builds a dataset. Same spec, same output.
func Generate(spec Spec) (*Dataset, error) {
	spec = spec.normalize()
	if spec.Routers < 4 {
		return nil, fmt.Errorf("gen: need at least 4 routers, got %d", spec.Routers)
	}
	vendor := syslogmsg.VendorV1
	prefix := "ar"
	mlFrac := 0.15
	tunnels := 0
	if spec.Kind == DatasetB {
		vendor = syslogmsg.VendorV2
		prefix = "br"
		mlFrac = 0.1
		tunnels = spec.Routers / 4
		if tunnels < 2 {
			tunnels = 2
		}
	}
	net, err := netconf.Generate(netconf.Spec{
		NamePrefix:        prefix,
		Vendor:            vendor,
		Routers:           spec.Routers,
		Seed:              spec.Seed,
		MultilinkFraction: mlFrac,
		TunnelPairs:       tunnels,
	})
	if err != nil {
		return nil, fmt.Errorf("gen: topology: %w", err)
	}
	s := &sim{spec: spec, net: net, rng: rand.New(rand.NewSource(spec.Seed ^ 0x5d1910c9)), cur: -1}

	days := spec.Duration.Hours() / 24
	type scenario struct {
		rate float64
		run  func(t time.Time)
	}
	var scenarios []scenario
	if spec.Kind == DatasetA {
		scenarios = []scenario{
			{spec.Rates.LinkFlap, s.linkFlapA},
			{spec.Rates.Controller, s.controllerInstability},
			{spec.Rates.BGPFlap, s.bgpFlapA},
			{spec.Rates.CPUSpike, s.cpuSpikeA},
			{spec.Rates.PeriodicMsg, s.tcpBadAuthA},
			{spec.Rates.Noise, s.scanNoiseA},
			{spec.Rates.Config, s.configChangeA},
			{spec.Rates.EnvAlarm, s.envAlarmA},
			{spec.Rates.TunnelFlap, s.lspFlapA},
		}
	} else {
		scenarios = []scenario{
			{spec.Rates.LinkFlap, s.linkFlapB},
			{spec.Rates.BGPFlap, s.bgpFlapB},
			{spec.Rates.CPUSpike, s.cpuHighB},
			{spec.Rates.PeriodicMsg, s.loginScanB},
			{spec.Rates.Noise, s.sapNoiseB},
			{spec.Rates.Config, s.configChangeB},
			{spec.Rates.EnvAlarm, s.fanFailB},
			{spec.Rates.TunnelFlap, s.tunnelFlapB},
			{spec.Rates.PIMFailure, s.pimDualFailureB},
		}
	}
	for _, sc := range scenarios {
		n := s.poisson(sc.rate * spec.RateScale * days)
		for i := 0; i < n; i++ {
			at := spec.Start.Add(time.Duration(s.rng.Float64() * float64(spec.Duration)))
			sc.run(at.Truncate(time.Second))
		}
	}

	msgs, labels := s.sortedStream()
	conds, renumber := s.sortedConditions()
	for i, l := range labels {
		if l >= 0 {
			labels[i] = renumber[l]
		}
	}
	return &Dataset{Spec: spec, Net: net, Messages: msgs, Conditions: conds, Labels: labels}, nil
}

// streamKey is one emitted message's sort key: its time as Unix seconds and
// nanoseconds, its router, and its emission position.
type streamKey struct {
	sec    int64
	router string
	nsec   int32
	i      int
}

// sortedStream returns the emitted messages in syslogmsg.SortByTime order
// with raw indices assigned, and their labels carried along. Emission
// order breaks ties, as a stable sort of the messages would (no index is
// assigned yet, so SortByTime's index tie-break never decides). The sort
// moves one small key per message; the messages move once, at the end.
func (s *sim) sortedStream() ([]syslogmsg.Message, []int32) {
	keys := make([]streamKey, len(s.msgs))
	for i := range s.msgs {
		t := s.msgs[i].Time
		keys[i] = streamKey{sec: t.Unix(), router: s.msgs[i].Router, nsec: int32(t.Nanosecond()), i: i}
	}
	slices.SortFunc(keys, func(a, b streamKey) int {
		switch {
		case a.sec != b.sec:
			return cmp.Compare(a.sec, b.sec)
		case a.nsec != b.nsec:
			return cmp.Compare(a.nsec, b.nsec)
		case a.router != b.router:
			return strings.Compare(a.router, b.router)
		}
		return cmp.Compare(a.i, b.i)
	})
	msgs := make([]syslogmsg.Message, len(keys))
	labels := make([]int32, len(keys))
	for j, k := range keys {
		msgs[j] = s.msgs[k.i]
		msgs[j].Index = uint64(j)
		labels[j] = s.labels[k.i]
	}
	return msgs, labels
}

// sortedConditions returns the conditions stably sorted by Start, and
// renumber, which maps a condition's emission index to its index there.
func (s *sim) sortedConditions() ([]Condition, []int32) {
	order := make([]int, len(s.cond))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return s.cond[order[a]].Start.Before(s.cond[order[b]].Start) })
	conds := make([]Condition, len(order))
	renumber := make([]int32, len(order))
	for j, i := range order {
		conds[j] = s.cond[i]
		renumber[i] = int32(j)
	}
	return conds, renumber
}

// poisson draws a Poisson variate: Knuth's method for modest rates, a
// normal approximation above it. The switch matters beyond accuracy —
// Knuth's product of uniforms underflows to zero near λ ≈ 745, silently
// capping every larger draw at ~745, which is exactly the regime storm
// corpora ask for. The threshold is far above every rate the standard
// profiles produce, so their byte streams are unchanged.
func (s *sim) poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 500 {
		k := int(math.Round(lambda + math.Sqrt(lambda)*s.rng.NormFloat64()))
		if k < 0 {
			k = 0
		}
		return k
	}
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= s.rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 10_000_000 {
			return k // safety net; unreachable below the λ threshold
		}
	}
}

// beginCondition opens a ground-truth record; emits attribute to it until
// endCondition.
func (s *sim) beginCondition(kind string, start time.Time, routers []string, detail string) {
	region := ""
	if len(routers) > 0 {
		if cfg := s.net.Router(routers[0]); cfg != nil {
			region = cfg.Region
		}
	}
	s.cond = append(s.cond, Condition{
		Kind: kind, Start: start, End: start,
		Routers: append([]string(nil), routers...),
		Detail:  detail, Region: region,
	})
	s.cur = len(s.cond) - 1
}

func (s *sim) endCondition() { s.cur = -1 }

// emit appends one message (time truncated to the syslog's one-second
// granularity), labels it with the open condition and accounts it there.
func (s *sim) emit(t time.Time, router, code, detail string) {
	t = t.Truncate(time.Second)
	s.msgs = append(s.msgs, syslogmsg.Message{
		Time: t, Router: router, Code: code, Detail: detail,
	})
	s.labels = append(s.labels, int32(s.cur))
	if s.cur >= 0 {
		c := &s.cond[s.cur]
		c.Messages++
		if t.After(c.End) {
			c.End = t
		}
		if t.Before(c.Start) {
			c.Start = t
		}
	}
}

// Helpers shared by scenarios.

// randLink picks a random link; ok is false when the network has none.
func (s *sim) randLink() (netconf.Link, bool) {
	if len(s.net.Links) == 0 {
		return netconf.Link{}, false
	}
	return s.net.Links[s.rng.Intn(len(s.net.Links))], true
}

func (s *sim) randSession() (netconf.Session, bool) {
	if len(s.net.Sessions) == 0 {
		return netconf.Session{}, false
	}
	return s.net.Sessions[s.rng.Intn(len(s.net.Sessions))], true
}

func (s *sim) randRouter() *netconf.Config {
	return s.net.Configs[s.rng.Intn(len(s.net.Configs))]
}

// hotRouter returns a router from the "hot" quarter of the network.
// Recurring per-router conditions (CPU pressure, probes) concentrate on a
// subset in practice, which is what gives their signatures a meaningful
// per-router history frequency for scoring.
func (s *sim) hotRouter() *netconf.Config {
	n := len(s.net.Configs) / 4
	if n < 2 {
		n = 2
	}
	return s.net.Configs[s.rng.Intn(n)]
}

// jitter returns d scaled by a uniform factor in [1-f, 1+f].
func (s *sim) jitter(d time.Duration, f float64) time.Duration {
	scale := 1 + (s.rng.Float64()*2-1)*f
	return time.Duration(float64(d) * scale)
}

// between returns a uniform duration in [lo, hi).
func (s *sim) between(lo, hi time.Duration) time.Duration {
	if hi <= lo {
		return lo
	}
	return lo + time.Duration(s.rng.Int63n(int64(hi-lo)))
}

// scannerIP fabricates an external (never configured) address.
func (s *sim) scannerIP() string {
	return fmt.Sprintf("203.0.113.%d", 1+s.rng.Intn(250))
}

func (s *sim) loopbackIP(router string) string {
	if cfg := s.net.Router(router); cfg != nil {
		if lb := cfg.Loopback(); lb != nil {
			return lb.IP
		}
	}
	return "0.0.0.0"
}
