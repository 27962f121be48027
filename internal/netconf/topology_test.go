package netconf

import (
	"testing"

	"syslogdigest/internal/syslogmsg"
)

func genNetwork(t *testing.T, spec Spec) *Network {
	t.Helper()
	n, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestGenerateDeterministic(t *testing.T) {
	spec := Spec{Routers: 20, Seed: 42, Vendor: syslogmsg.VendorV1, MultilinkFraction: 0.3, TunnelPairs: 3}
	a := genNetwork(t, spec)
	b := genNetwork(t, spec)
	if len(a.Configs) != len(b.Configs) || len(a.Links) != len(b.Links) {
		t.Fatal("same seed produced different shapes")
	}
	for i := range a.Configs {
		if Render(a.Configs[i]) != Render(b.Configs[i]) {
			t.Fatalf("config %d differs between runs", i)
		}
	}
	c := genNetwork(t, Spec{Routers: 20, Seed: 43, Vendor: syslogmsg.VendorV1, MultilinkFraction: 0.3, TunnelPairs: 3})
	same := true
	for i := range a.Configs {
		if Render(a.Configs[i]) != Render(c.Configs[i]) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical networks")
	}
}

func TestGenerateShape(t *testing.T) {
	spec := Spec{Routers: 25, Seed: 7, Vendor: syslogmsg.VendorV1, TunnelPairs: 2}
	n := genNetwork(t, spec)
	if len(n.Configs) != 25 {
		t.Fatalf("routers = %d", len(n.Configs))
	}
	core := CoreCount(25)
	if core != 5 {
		t.Fatalf("CoreCount(25) = %d, want 5", core)
	}
	// Every edge router has exactly two uplinks.
	degree := make(map[string]int)
	for _, lk := range n.Links {
		degree[lk.A]++
		degree[lk.B]++
	}
	for i := core; i < 25; i++ {
		name := n.Configs[i].Hostname
		if degree[name] != 2 {
			t.Errorf("edge router %s degree = %d, want 2", name, degree[name])
		}
	}
	// Core routers are connected (ring at minimum).
	for i := 0; i < core; i++ {
		if degree[n.Configs[i].Hostname] < 2 {
			t.Errorf("core router %s degree = %d, want >= 2", n.Configs[i].Hostname, degree[n.Configs[i].Hostname])
		}
	}
	if len(n.Paths) != 2 {
		t.Fatalf("paths = %d, want 2", len(n.Paths))
	}
}

// findInterface returns c's interface with the given name, or nil.
func findInterface(c *Config, name string) *Interface {
	for i := range c.Interfaces {
		if c.Interfaces[i].Name == name {
			return &c.Interfaces[i]
		}
	}
	return nil
}

func TestGenerateLinksHaveMatchingSubnets(t *testing.T) {
	n := genNetwork(t, Spec{Routers: 16, Seed: 11, Vendor: syslogmsg.VendorV1, MultilinkFraction: 0.5})
	for _, lk := range n.Links {
		a, b := n.Router(lk.A), n.Router(lk.B)
		if a == nil || b == nil {
			t.Fatalf("link references unknown router: %+v", lk)
		}
		ai, bi := findInterface(a, lk.AIntf), findInterface(b, lk.BIntf)
		if ai == nil || bi == nil {
			t.Fatalf("link interface missing from config: %+v", lk)
		}
		ka, err := SubnetKey(ai.IP, ai.PrefixLen)
		if err != nil {
			t.Fatal(err)
		}
		kb, err := SubnetKey(bi.IP, bi.PrefixLen)
		if err != nil {
			t.Fatal(err)
		}
		if ka != kb || ka != lk.Subnet {
			t.Fatalf("subnet mismatch on %s<->%s: %s vs %s (truth %s)", lk.A, lk.B, ka, kb, lk.Subnet)
		}
		// Bundled links have members pointing at the bundle.
		for _, m := range lk.AMembers {
			mi := findInterface(a, m)
			if mi == nil || mi.Bundle != lk.AIntf {
				t.Fatalf("member %s of %s not wired to bundle %s", m, lk.A, lk.AIntf)
			}
		}
	}
}

func TestGenerateSubnetsUnique(t *testing.T) {
	n := genNetwork(t, Spec{Routers: 40, Seed: 3, Vendor: syslogmsg.VendorV2})
	seen := make(map[string]bool)
	for _, lk := range n.Links {
		if seen[lk.Subnet] {
			t.Fatalf("duplicate subnet %s", lk.Subnet)
		}
		seen[lk.Subnet] = true
	}
}

func TestGenerateSessionsAreConfigured(t *testing.T) {
	n := genNetwork(t, Spec{Routers: 15, Seed: 5, Vendor: syslogmsg.VendorV1})
	if len(n.Sessions) == 0 {
		t.Fatal("no BGP sessions generated")
	}
	for _, s := range n.Sessions {
		a, b := n.Router(s.A), n.Router(s.B)
		foundA, foundB := false, false
		for _, nb := range a.Neighbors {
			if nb.IP == s.BIP {
				foundA = true
			}
		}
		for _, nb := range b.Neighbors {
			if nb.IP == s.AIP {
				foundB = true
			}
		}
		if !foundA || !foundB {
			t.Fatalf("session %s<->%s not reflected in configs", s.A, s.B)
		}
	}
}

func TestGenerateV2Naming(t *testing.T) {
	n := genNetwork(t, Spec{Routers: 10, Seed: 9, Vendor: syslogmsg.VendorV2, NamePrefix: "b"})
	for _, c := range n.Configs {
		if c.Loopback() == nil {
			t.Fatalf("router %s has no system address", c.Hostname)
		}
		if c.Vendor != syslogmsg.VendorV2 {
			t.Fatalf("router %s vendor = %v", c.Hostname, c.Vendor)
		}
	}
	// V2 configs round trip through the V2 dialect.
	for _, c := range n.Configs[:3] {
		text := Render(c)
		back, err := Parse(text)
		if err != nil {
			t.Fatalf("parse generated V2 config: %v\n%s", err, text)
		}
		if back.Hostname != c.Hostname || len(back.Interfaces) != len(c.Interfaces) {
			t.Fatalf("round trip mismatch for %s", c.Hostname)
		}
	}
}

func TestGenerateV1ConfigsRoundTrip(t *testing.T) {
	n := genNetwork(t, Spec{Routers: 12, Seed: 13, Vendor: syslogmsg.VendorV1, MultilinkFraction: 0.4, TunnelPairs: 2})
	for _, c := range n.Configs {
		text := Render(c)
		back, err := Parse(text)
		if err != nil {
			t.Fatalf("parse generated config for %s: %v\n%s", c.Hostname, err, text)
		}
		if back.Hostname != c.Hostname {
			t.Fatalf("hostname %q != %q", back.Hostname, c.Hostname)
		}
		if len(back.Interfaces) != len(c.Interfaces) {
			t.Fatalf("%s: interface count %d != %d", c.Hostname, len(back.Interfaces), len(c.Interfaces))
		}
		if len(back.Neighbors) != len(c.Neighbors) {
			t.Fatalf("%s: neighbor count %d != %d", c.Hostname, len(back.Neighbors), len(c.Neighbors))
		}
		if back.Region != c.Region {
			t.Fatalf("%s: region %q != %q", c.Hostname, back.Region, c.Region)
		}
	}
}

func TestNormalizeDefaults(t *testing.T) {
	s := Spec{}
	s.Normalize()
	if s.Routers < 4 || s.NamePrefix != "r" || s.LocalAS != 65000 || len(s.Regions) == 0 {
		t.Fatalf("defaults not applied: %+v", s)
	}
	s = Spec{MultilinkFraction: 7}
	s.Normalize()
	if s.MultilinkFraction != 1 {
		t.Fatalf("fraction not clamped: %v", s.MultilinkFraction)
	}
}

func TestCoreCountBounds(t *testing.T) {
	if CoreCount(4) != 3 {
		t.Fatalf("CoreCount(4) = %d", CoreCount(4))
	}
	if CoreCount(100) != 20 {
		t.Fatalf("CoreCount(100) = %d", CoreCount(100))
	}
}
