package locdict

import (
	"math/rand"
	"testing"
	"testing/quick"

	"syslogdigest/internal/netconf"
	"syslogdigest/internal/syslogmsg"
)

// Property tests over generated topologies.

func randomNetworkDict(t *testing.T, seed int64, routers int) *Dictionary {
	t.Helper()
	net, err := netconf.Generate(netconf.Spec{
		Routers: routers, Seed: seed, Vendor: syslogmsg.VendorV1,
		MultilinkFraction: 0.3, TunnelPairs: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := Build(net.Configs)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// randomLocations samples dictionary-grounded and fabricated locations.
func randomLocations(rng *rand.Rand, d *Dictionary, n int) []Location {
	var names []string
	for r := range dictRouters(d) {
		names = append(names, r)
	}
	// dictRouters returns a map; sort for determinism.
	sortStrings(names)
	var out []Location
	for i := 0; i < n; i++ {
		router := names[rng.Intn(len(names))]
		switch rng.Intn(4) {
		case 0:
			out = append(out, RouterLoc(router))
		case 1:
			out = append(out, Location{Router: router, Level: LevelSlot, Name: itoa(1 + rng.Intn(4))})
		case 2:
			out = append(out, Location{Router: router, Level: LevelPort, Name: itoa(1+rng.Intn(4)) + "/" + itoa(rng.Intn(4))})
		default:
			ifs := interfaces(d, router)
			if len(ifs) > 0 {
				out = append(out, IntfLoc(router, ifs[rng.Intn(len(ifs))].Name))
			} else {
				out = append(out, RouterLoc(router))
			}
		}
	}
	return out
}

// interfaces lists a router's interfaces sorted by name.
func interfaces(d *Dictionary, router string) []*Intf {
	var names []string
	for name := range d.routers[router].intfs {
		names = append(names, name)
	}
	sortStrings(names)
	out := make([]*Intf, len(names))
	for i, name := range names {
		out[i] = d.routers[router].intfs[name]
	}
	return out
}

func dictRouters(d *Dictionary) map[string]bool {
	out := make(map[string]bool)
	for _, lk := range d.Links() {
		out[lk.A] = true
		out[lk.B] = true
	}
	return out
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// Property: SpatialMatch is reflexive and symmetric; Connected is symmetric
// and never true for same-router pairs; the two predicates are mutually
// exclusive.
func TestPredicatePropertiesQuick(t *testing.T) {
	d := randomNetworkDict(t, 99, 16)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		locs := randomLocations(rng, d, 12)
		for _, a := range locs {
			if !d.SpatialMatch(a, a) {
				return false
			}
			for _, b := range locs {
				sm := d.SpatialMatch(a, b)
				if sm != d.SpatialMatch(b, a) {
					return false
				}
				cn := d.Connected(a, b)
				if cn != d.Connected(b, a) {
					return false
				}
				if a.Router == b.Router && cn {
					return false
				}
				if a.Router != b.Router && sm {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: Ancestors always ends at the router and never increases in
// granularity along the chain.
func TestAncestorsChainQuick(t *testing.T) {
	d := randomNetworkDict(t, 100, 12)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for _, loc := range randomLocations(rng, d, 10) {
			chain := d.Ancestors(loc)
			if len(chain) == 0 || chain[0] != loc {
				return false
			}
			last := chain[len(chain)-1]
			if last.Level != LevelRouter || last.Router != loc.Router {
				return false
			}
			for i := 1; i < len(chain); i++ {
				if chain[i].Level <= chain[i-1].Level {
					return false
				}
				if chain[i].Router != loc.Router {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: every link's two endpoint interfaces are Connected, and
// LinkPeer round trips.
func TestLinkEndpointsConnectedQuick(t *testing.T) {
	for _, seed := range []int64{1, 7, 21} {
		d := randomNetworkDict(t, seed, 14)
		for _, lk := range d.Links() {
			a := IntfLoc(lk.A, lk.AIntf)
			b := IntfLoc(lk.B, lk.BIntf)
			if !d.Connected(a, b) {
				t.Fatalf("seed %d: link %v not connected", seed, lk)
			}
			pr, pi, ok := d.LinkPeer(lk.A, lk.AIntf)
			if !ok || pr != lk.B || pi != lk.BIntf {
				t.Fatalf("seed %d: LinkPeer round trip failed for %v", seed, lk)
			}
		}
	}
}
