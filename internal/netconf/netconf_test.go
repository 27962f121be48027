package netconf

import (
	"testing"

	"syslogdigest/internal/syslogmsg"
)

func TestPrefixLenToMask(t *testing.T) {
	cases := []struct {
		in   int
		want string
	}{
		{0, "0.0.0.0"}, {8, "255.0.0.0"}, {24, "255.255.255.0"},
		{30, "255.255.255.252"}, {32, "255.255.255.255"},
	}
	for _, c := range cases {
		got, err := PrefixLenToMask(c.in)
		if err != nil {
			t.Fatalf("PrefixLenToMask(%d): %v", c.in, err)
		}
		if got != c.want {
			t.Errorf("PrefixLenToMask(%d) = %q, want %q", c.in, got, c.want)
		}
	}
	if _, err := PrefixLenToMask(33); err == nil {
		t.Error("want error for /33")
	}
	if _, err := PrefixLenToMask(-1); err == nil {
		t.Error("want error for /-1")
	}
}

func TestMaskToPrefixLenRoundTrip(t *testing.T) {
	for n := 0; n <= 32; n++ {
		mask, err := PrefixLenToMask(n)
		if err != nil {
			t.Fatal(err)
		}
		back, err := MaskToPrefixLen(mask)
		if err != nil {
			t.Fatalf("MaskToPrefixLen(%q): %v", mask, err)
		}
		if back != n {
			t.Errorf("round trip /%d -> %q -> /%d", n, mask, back)
		}
	}
	if _, err := MaskToPrefixLen("255.0.255.0"); err == nil {
		t.Error("want error for non-contiguous mask")
	}
	if _, err := MaskToPrefixLen("garbage"); err == nil {
		t.Error("want error for garbage mask")
	}
}

func TestParseFormatIPv4(t *testing.T) {
	ip, err := ParseIPv4("10.1.2.3")
	if err != nil {
		t.Fatal(err)
	}
	if got := FormatIPv4(ip); got != "10.1.2.3" {
		t.Fatalf("round trip = %q", got)
	}
	for _, bad := range []string{"10.1.2", "10.1.2.3.4", "10.1.2.256", "a.b.c.d", ""} {
		if _, err := ParseIPv4(bad); err == nil {
			t.Errorf("ParseIPv4(%q) succeeded", bad)
		}
	}
}

func TestSubnetKey(t *testing.T) {
	k1, err := SubnetKey("10.0.0.1", 30)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := SubnetKey("10.0.0.2", 30)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 || k1 != "10.0.0.0/30" {
		t.Fatalf("keys = %q, %q; want both 10.0.0.0/30", k1, k2)
	}
	k3, _ := SubnetKey("10.0.0.5", 30)
	if k3 == k1 {
		t.Fatal("different /30s produced the same key")
	}
	if _, err := SubnetKey("10.0.0.1", 40); err == nil {
		t.Error("want error for /40")
	}
}

func sampleV1Config() *Config {
	return &Config{
		Hostname: "ar1",
		Vendor:   syslogmsg.VendorV1,
		Region:   "TX",
		LocalAS:  65000,
		Interfaces: []Interface{
			{Name: "Loopback0", IP: "192.168.0.1", PrefixLen: 32},
			{Name: "Serial1/0/1:0", IP: "10.0.0.1", PrefixLen: 30, Description: "link to ar2 Serial1/0/2:0"},
			{Name: "Serial1/1/1:0", Bundle: "Multilink1"},
			{Name: "Serial1/2/1:0", Bundle: "Multilink1"},
			{Name: "Multilink1", IP: "10.0.0.5", PrefixLen: 30, Description: "link to cr1"},
		},
		Controllers: []Controller{{Kind: "T3", Path: "1/0"}},
		Neighbors: []BGPNeighbor{
			{IP: "10.0.0.2", RemoteAS: 65000},
			{IP: "192.168.0.9", RemoteAS: 65000, VRF: "1000:1001"},
		},
		Tunnels: []Tunnel{{Name: "Tunnel1", DestinationIP: "192.168.0.5", Hops: []string{"cr1", "cr2"}}},
	}
}

func sampleV2Config() *Config {
	return &Config{
		Hostname: "br1",
		Vendor:   syslogmsg.VendorV2,
		Region:   "GA",
		LocalAS:  65001,
		Interfaces: []Interface{
			{Name: "system", IP: "192.168.1.1", PrefixLen: 32},
			{Name: "1/1/1", IP: "10.1.0.1", PrefixLen: 30, Description: "link to br2 1/1/2"},
			{Name: "1/1/2", Bundle: "lag-1"},
			{Name: "1/1/3", Bundle: "lag-1"},
			{Name: "lag-1", IP: "10.1.0.5", PrefixLen: 30},
		},
		Neighbors: []BGPNeighbor{
			{IP: "192.168.1.2", RemoteAS: 65001, VRF: "1000:1002"},
		},
		Tunnels: []Tunnel{{Name: "sec-br1-br2", DestinationIP: "192.168.1.2", Hops: []string{"bc1"}}},
	}
}

func configsEqual(t *testing.T, got, want *Config) {
	t.Helper()
	if got.Hostname != want.Hostname || got.Region != want.Region {
		t.Fatalf("identity: got (%q, %q), want (%q, %q)", got.Hostname, got.Region, want.Hostname, want.Region)
	}
	if got.Vendor != want.Vendor {
		t.Fatalf("vendor: got %v, want %v", got.Vendor, want.Vendor)
	}
	if len(got.Interfaces) != len(want.Interfaces) {
		t.Fatalf("interfaces: got %d, want %d\n%+v", len(got.Interfaces), len(want.Interfaces), got.Interfaces)
	}
	for i := range want.Interfaces {
		if got.Interfaces[i] != want.Interfaces[i] {
			t.Errorf("interface %d: got %+v, want %+v", i, got.Interfaces[i], want.Interfaces[i])
		}
	}
	if len(got.Neighbors) != len(want.Neighbors) {
		t.Fatalf("neighbors: got %d, want %d", len(got.Neighbors), len(want.Neighbors))
	}
	for i := range want.Neighbors {
		if got.Neighbors[i] != want.Neighbors[i] {
			t.Errorf("neighbor %d: got %+v, want %+v", i, got.Neighbors[i], want.Neighbors[i])
		}
	}
	if len(got.Tunnels) != len(want.Tunnels) {
		t.Fatalf("tunnels: got %d, want %d", len(got.Tunnels), len(want.Tunnels))
	}
	for i := range want.Tunnels {
		g, w := got.Tunnels[i], want.Tunnels[i]
		if g.Name != w.Name || g.DestinationIP != w.DestinationIP || len(g.Hops) != len(w.Hops) {
			t.Errorf("tunnel %d: got %+v, want %+v", i, g, w)
		}
	}
	if len(got.Controllers) != len(want.Controllers) {
		t.Fatalf("controllers: got %d, want %d", len(got.Controllers), len(want.Controllers))
	}
}

func TestRenderParseRoundTripV1(t *testing.T) {
	want := sampleV1Config()
	text := Render(want)
	got, err := Parse(text)
	if err != nil {
		t.Fatalf("parse failed: %v\nconfig text:\n%s", err, text)
	}
	configsEqual(t, got, want)
	if got.LocalAS != 65000 {
		t.Fatalf("LocalAS = %d", got.LocalAS)
	}
}

func TestRenderParseRoundTripV2(t *testing.T) {
	want := sampleV2Config()
	text := Render(want)
	got, err := Parse(text)
	if err != nil {
		t.Fatalf("parse failed: %v\nconfig text:\n%s", err, text)
	}
	configsEqual(t, got, want)
}

func TestParseRejectsGarbage(t *testing.T) {
	cases := []string{
		"interface Serial1/0\n ip address 10.0.0.1 255.255.255.252\n", // no hostname
		"hostname x\nbogus statement here\n",
		"system name \"x\"\nport 1/1/1 address notanip/30\n",
		"system name \"x\"\nfrob 1\n",
	}
	for _, c := range cases {
		if _, err := Parse(c); err == nil {
			t.Errorf("Parse accepted %q", c)
		}
	}
}

func TestLoopbackAndFind(t *testing.T) {
	c := sampleV1Config()
	lb := c.Loopback()
	if lb == nil || lb.IP != "192.168.0.1" {
		t.Fatalf("Loopback = %+v", lb)
	}
	v2 := sampleV2Config()
	if lb := v2.Loopback(); lb == nil || lb.Name != "system" {
		t.Fatalf("V2 loopback = %+v", lb)
	}
}

func TestSplitQuoted(t *testing.T) {
	got := splitQuoted(`port 1/1/1 description "link to br2 1/1/2" bundle lag-1`)
	want := []string{"port", "1/1/1", "description", "link to br2 1/1/2", "bundle", "lag-1"}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("field %d = %q, want %q", i, got[i], want[i])
		}
	}
	if got := splitQuoted(`a "" b`); len(got) != 3 || got[1] != "" {
		t.Fatalf("empty quoted field: %v", got)
	}
}
