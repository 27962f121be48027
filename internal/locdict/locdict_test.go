package locdict

import (
	"testing"

	"syslogdigest/internal/netconf"
	"syslogdigest/internal/syslogmsg"
)

// testConfigs builds a small two-router network by hand:
//
//	r1 Serial1/0/1:0 (10.0.0.1/30) <-> r2 Serial2/0/1:0 (10.0.0.2/30)
//	r1 Multilink1 (10.0.0.5/30, members Serial1/1/1:0, Serial1/2/1:0)
//	    <-> r2 Multilink1 (10.0.0.6/30, members Serial2/1/1:0, Serial2/2/1:0)
//	iBGP r1<->r2 over loopbacks, VRF 1000:1001
//	Tunnel1 r1->r2 via r3
func testConfigs() []*netconf.Config {
	r1 := &netconf.Config{
		Hostname: "r1", Vendor: syslogmsg.VendorV1, Region: "TX", LocalAS: 65000,
		Interfaces: []netconf.Interface{
			{Name: "Loopback0", IP: "192.168.0.1", PrefixLen: 32},
			{Name: "Serial1/0/1:0", IP: "10.0.0.1", PrefixLen: 30},
			{Name: "Serial1/1/1:0", Bundle: "Multilink1"},
			{Name: "Serial1/2/1:0", Bundle: "Multilink1"},
			{Name: "Multilink1", IP: "10.0.0.5", PrefixLen: 30},
		},
		Neighbors: []netconf.BGPNeighbor{{IP: "192.168.0.2", RemoteAS: 65000, VRF: "1000:1001"}},
		Tunnels:   []netconf.Tunnel{{Name: "Tunnel1", DestinationIP: "192.168.0.2", Hops: []string{"r3"}}},
	}
	r2 := &netconf.Config{
		Hostname: "r2", Vendor: syslogmsg.VendorV1, Region: "GA", LocalAS: 65000,
		Interfaces: []netconf.Interface{
			{Name: "Loopback0", IP: "192.168.0.2", PrefixLen: 32},
			{Name: "Serial2/0/1:0", IP: "10.0.0.2", PrefixLen: 30},
			{Name: "Serial2/1/1:0", Bundle: "Multilink1"},
			{Name: "Serial2/2/1:0", Bundle: "Multilink1"},
			{Name: "Multilink1", IP: "10.0.0.6", PrefixLen: 30},
		},
		Neighbors: []netconf.BGPNeighbor{{IP: "192.168.0.1", RemoteAS: 65000, VRF: "1000:1001"}},
	}
	r3 := &netconf.Config{
		Hostname: "r3", Vendor: syslogmsg.VendorV1, Region: "NY", LocalAS: 65000,
		Interfaces: []netconf.Interface{
			{Name: "Loopback0", IP: "192.168.0.3", PrefixLen: 32},
		},
	}
	r4 := &netconf.Config{
		Hostname: "r4", Vendor: syslogmsg.VendorV1, Region: "CA", LocalAS: 65000,
		Interfaces: []netconf.Interface{
			{Name: "Loopback0", IP: "192.168.0.4", PrefixLen: 32},
		},
	}
	return []*netconf.Config{r1, r2, r3, r4}
}

func build(t *testing.T) *Dictionary {
	t.Helper()
	d, err := Build(testConfigs())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestLevelWeight(t *testing.T) {
	if LevelInterface.Weight() != 1 || LevelPort.Weight() != 10 ||
		LevelSlot.Weight() != 100 || LevelRouter.Weight() != 1000 {
		t.Fatal("level weights are not 10x per level")
	}
}

func TestLevelString(t *testing.T) {
	for l, want := range map[Level]string{
		LevelInterface: "interface", LevelPort: "port", LevelSlot: "slot", LevelRouter: "router",
	} {
		if l.String() != want {
			t.Errorf("Level(%d).String() = %q, want %q", l, l.String(), want)
		}
	}
}

func TestBuildBasics(t *testing.T) {
	d := build(t)
	if d.Routers() != 4 {
		t.Fatalf("Routers = %d", d.Routers())
	}
	if d.routers["r1"] == nil || d.routers["r9"] != nil {
		t.Fatal("router table wrong")
	}
	if d.Region("r1") != "TX" || d.Region("r9") != "" {
		t.Fatal("Region wrong")
	}
	r, i, ok := d.ResolveIP("10.0.0.2")
	if !ok || r != "r2" || i != "Serial2/0/1:0" {
		t.Fatalf("ResolveIP = (%q, %q, %v)", r, i, ok)
	}
}

func TestBuildRejectsDuplicates(t *testing.T) {
	cfgs := testConfigs()
	cfgs = append(cfgs, &netconf.Config{Hostname: "r1"})
	if _, err := Build(cfgs); err == nil {
		t.Fatal("want error for duplicate router")
	}
	cfgs = testConfigs()
	cfgs[2].Interfaces = append(cfgs[2].Interfaces, netconf.Interface{Name: "Loopback1", IP: "192.168.0.1", PrefixLen: 32})
	if _, err := Build(cfgs); err == nil {
		t.Fatal("want error for duplicate IP")
	}
}

func TestLinkInference(t *testing.T) {
	d := build(t)
	if got := len(d.Links()); got != 2 {
		t.Fatalf("links = %d, want 2 (serial + multilink)", got)
	}
	pr, pi, ok := d.LinkPeer("r1", "Serial1/0/1:0")
	if !ok || pr != "r2" || pi != "Serial2/0/1:0" {
		t.Fatalf("LinkPeer = (%q, %q, %v)", pr, pi, ok)
	}
	// Bundle members inherit peering.
	pr, _, ok = d.LinkPeer("r1", "Serial1/1/1:0")
	if !ok || pr != "r2" {
		t.Fatalf("member LinkPeer = (%q, %v)", pr, ok)
	}
	// Case-insensitive lookup.
	if _, _, ok := d.LinkPeer("r1", "serial1/0/1:0"); !ok {
		t.Fatal("LinkPeer not case-insensitive")
	}
	if _, _, ok := d.LinkPeer("r1", "Loopback0"); ok {
		t.Fatal("loopback should not be a link endpoint")
	}
}

func TestSessionAndPathInference(t *testing.T) {
	d := build(t)
	if len(d.Sessions()) != 1 {
		t.Fatalf("sessions = %d, want 1 (deduplicated)", len(d.Sessions()))
	}
	s := d.Sessions()[0]
	if s.VRF != "1000:1001" {
		t.Fatalf("session VRF = %q", s.VRF)
	}
	peer, ok := d.SessionPeer("r1", "192.168.0.2")
	if !ok || peer != "r2" {
		t.Fatalf("SessionPeer = (%q, %v)", peer, ok)
	}
	peer, ok = d.SessionPeer("r2", "192.168.0.1")
	if !ok || peer != "r1" {
		t.Fatalf("reverse SessionPeer = (%q, %v)", peer, ok)
	}
	if len(d.Paths()) != 1 {
		t.Fatalf("paths = %d, want 1", len(d.Paths()))
	}
	if d.Paths()[0].Hops[0] != "r3" {
		t.Fatalf("path hops = %v", d.Paths()[0].Hops)
	}
}

func TestAncestors(t *testing.T) {
	d := build(t)
	chain := d.Ancestors(IntfLoc("r1", "Serial1/0/1:0"))
	want := []Location{
		IntfLoc("r1", "Serial1/0/1:0"),
		{Router: "r1", Level: LevelPort, Name: "1/0"},
		{Router: "r1", Level: LevelSlot, Name: "1"},
		RouterLoc("r1"),
	}
	if len(chain) != len(want) {
		t.Fatalf("chain = %v", chain)
	}
	for i := range want {
		if chain[i] != want[i] {
			t.Fatalf("chain[%d] = %v, want %v", i, chain[i], want[i])
		}
	}
	// Logical bundle resolves through its first member to hardware.
	chain = d.Ancestors(IntfLoc("r1", "Multilink1"))
	foundSlot := false
	for _, l := range chain {
		if l.Level == LevelSlot {
			foundSlot = true
		}
	}
	if !foundSlot {
		t.Fatalf("bundle ancestors missing slot: %v", chain)
	}
	// Router-level location is its own chain.
	chain = d.Ancestors(RouterLoc("r1"))
	if len(chain) != 1 {
		t.Fatalf("router chain = %v", chain)
	}
	// Unknown interface still parses positional ancestors from its name.
	chain = d.Ancestors(IntfLoc("r1", "Serial3/1/9:0"))
	if len(chain) != 4 {
		t.Fatalf("unknown intf chain = %v", chain)
	}
}

func TestSpatialMatch(t *testing.T) {
	d := build(t)
	intf := IntfLoc("r1", "Serial1/0/1:0")
	cases := []struct {
		a, b Location
		want bool
	}{
		{intf, intf, true},
		{intf, RouterLoc("r1"), true}, // router matches everything on it
		{RouterLoc("r1"), intf, true},
		{intf, Location{Router: "r1", Level: LevelSlot, Name: "1"}, true},
		{intf, Location{Router: "r1", Level: LevelSlot, Name: "2"}, false},
		{intf, Location{Router: "r1", Level: LevelPort, Name: "1/0"}, true},
		{intf, Location{Router: "r1", Level: LevelPort, Name: "1/1"}, false},
		{intf, IntfLoc("r2", "Serial2/0/1:0"), false}, // different routers never spatially match
		// Two different interfaces on the same slot do not match.
		{IntfLoc("r1", "Serial1/1/1:0"), IntfLoc("r1", "Serial1/0/1:0"), false},
		// Bundle member matches its bundle and its sibling member.
		{IntfLoc("r1", "Serial1/1/1:0"), IntfLoc("r1", "Multilink1"), true},
		{IntfLoc("r1", "Serial1/1/1:0"), IntfLoc("r1", "Serial1/2/1:0"), true},
	}
	for _, c := range cases {
		if got := d.SpatialMatch(c.a, c.b); got != c.want {
			t.Errorf("SpatialMatch(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
		// Symmetry.
		if got := d.SpatialMatch(c.b, c.a); got != c.want {
			t.Errorf("SpatialMatch(%v, %v) = %v, want %v (asymmetric!)", c.b, c.a, got, c.want)
		}
	}
}

func TestConnected(t *testing.T) {
	d := build(t)
	a := IntfLoc("r1", "Serial1/0/1:0")
	b := IntfLoc("r2", "Serial2/0/1:0")
	if !d.Connected(a, b) {
		t.Fatal("two ends of one link should be connected")
	}
	// Ends of *different* links between connected routers don't pair at
	// interface level.
	ml2 := IntfLoc("r2", "Multilink1")
	if d.Connected(a, ml2) {
		t.Fatal("ends of different links should not be connected")
	}
	// Bundle members connect to the far-end bundle.
	if !d.Connected(IntfLoc("r1", "Serial1/1/1:0"), ml2) {
		t.Fatal("bundle member should connect to far-end bundle")
	}
	// Router-level locations on linked routers are connected.
	if !d.Connected(RouterLoc("r1"), RouterLoc("r2")) {
		t.Fatal("linked routers should be connected at router level")
	}
	// Path intermediate hop connects to endpoints.
	if !d.Connected(RouterLoc("r1"), RouterLoc("r3")) {
		t.Fatal("tunnel hop should be connected to endpoint")
	}
	// Same router never "connected".
	if d.Connected(a, IntfLoc("r1", "Multilink1")) {
		t.Fatal("same-router locations must use SpatialMatch, not Connected")
	}
	// Hop routers connect to *both* path endpoints — the PIM scenario needs
	// a failure on the secondary-path hop to relate to the far endpoint.
	if !d.Connected(RouterLoc("r2"), RouterLoc("r3")) {
		t.Fatal("tunnel hop should be connected to the far endpoint too")
	}
	// Truly unrelated routers.
	if d.Connected(RouterLoc("r1"), RouterLoc("r4")) {
		t.Fatal("r1 and r4 share nothing")
	}
}

func TestNormalize(t *testing.T) {
	d := build(t)
	cases := []struct {
		router, token string
		want          Location
		ok            bool
	}{
		{"r1", "Serial1/0/1:0", IntfLoc("r1", "Serial1/0/1:0"), true},
		{"r1", "serial1/0/1:0", IntfLoc("r1", "Serial1/0/1:0"), true}, // case-insensitive
		{"r1", "10.0.0.1", IntfLoc("r1", "Serial1/0/1:0"), true},      // own IP
		{"r1", "10.0.0.2", Location{}, false},                         // neighbor's IP is not ours
		{"r1", "1", Location{Router: "r1", Level: LevelSlot, Name: "1"}, true},
		{"r1", "9", Location{}, false}, // no such slot
		{"r1", "1/0", Location{Router: "r1", Level: LevelPort, Name: "1/0"}, true},
		{"r1", "Multilink1", IntfLoc("r1", "Multilink1"), true},
		{"r1", "garbage", Location{}, false},
		{"r9", "Serial1/0/1:0", Location{}, false}, // unknown router
		// Channelized extension of a configured name.
		{"r1", "Serial1/0/1:0.100", IntfLoc("r1", "Serial1/0/1:0"), true},
	}
	for _, c := range cases {
		got, ok := d.Normalize(c.router, c.token)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("Normalize(%q, %q) = (%v, %v), want (%v, %v)", c.router, c.token, got, ok, c.want, c.ok)
		}
	}
}

func TestLocationKey(t *testing.T) {
	if RouterLoc("r1").Key() != "r1" {
		t.Fatal("router key should be bare name")
	}
	k := IntfLoc("r1", "Serial1/0/1:0").Key()
	if k != "r1 interface Serial1/0/1:0" {
		t.Fatalf("key = %q", k)
	}
}

func TestBuildFromGeneratedNetwork(t *testing.T) {
	// Link inference over a generated topology must recover exactly the
	// generator's ground-truth links.
	net, err := netconf.Generate(netconf.Spec{Routers: 30, Seed: 21, Vendor: syslogmsg.VendorV1, MultilinkFraction: 0.3, TunnelPairs: 4})
	if err != nil {
		t.Fatal(err)
	}
	d, err := Build(net.Configs)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Links()) != len(net.Links) {
		t.Fatalf("inferred %d links, truth has %d", len(d.Links()), len(net.Links))
	}
	truth := make(map[string]bool)
	for _, lk := range net.Links {
		truth[lk.A+"|"+lk.AIntf+"|"+lk.B+"|"+lk.BIntf] = true
		truth[lk.B+"|"+lk.BIntf+"|"+lk.A+"|"+lk.AIntf] = true
	}
	for _, lk := range d.Links() {
		if !truth[lk.A+"|"+lk.AIntf+"|"+lk.B+"|"+lk.BIntf] {
			t.Fatalf("inferred link not in ground truth: %+v", lk)
		}
	}
	if len(d.Paths()) != len(net.Paths) {
		t.Fatalf("inferred %d paths, truth has %d", len(d.Paths()), len(net.Paths))
	}
}
